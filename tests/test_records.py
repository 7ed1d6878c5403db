"""The result records' contract, read through their public surface only.

Every record class a verdict, an estimate or a study hands back is
checked on real outputs: the 10 catalog ``classify`` reports (criterion
1) with their evidence, s_rho estimates, classical brackets and mp
verdicts, a ``classify`` at level none, a passing and a failing
``mp-check``, ``construct``, the README convergence study with its fit,
converse probe and maximal-source report, the nodes of a parsed
expression, a residual value, an axiom report and a rate comparison.
For each record:

* ``repr`` is ``Name(field=value, ...)`` over its fields in declaration
  order, each value as its own ``repr``;
* ``==`` holds for a copy rebuilt from the fields and fails once one field
  differs;
* ``bool`` is the verdict of a verdict record and True for any other;
* assigning a field raises ``AttributeError``;
* ``to_json_dict`` prints the pinned bytes;
* a default container is read-only or not shared between two records.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

import specqual as sq
from specqual.experiments import InclusionEntry
from specqual.expressions import Binary, Const, Unary, Var
from specqual.rates import CompareVerdict, OrderFn, SourceFn

FIELDS = {
    Const: ("value",),
    Var: ("name",),
    Unary: ("op", "child"),
    Binary: ("op", "left", "right"),
    sq.ResidualValue: ("value", "log_abs", "sign"),
    sq.AxiomReport: ("h1_finite", "h2_bounded", "h3_pointwise", "h2_observed_sup",
                     "h3_worst_deviation", "failures", "notes"),
    sq.LimitEstimate: ("kind", "value", "tail_min", "tail_max", "stabilized", "grid_meta"),
    sq.PairVerdict: ("holds", "bound_k", "gamma", "h_used", "witnesses", "detail"),
    sq.ClassicalOrder: ("low", "high", "zero", "infinite", "mu_grid", "passed"),
    sq.MPVerdict: ("passes", "gamma", "witness_alpha", "growth", "weak_certificate"),
    sq.QualificationReport: ("filter_id", "rho_label", "level", "srho_table", "classical_mu0",
                             "mp_verdict", "evidence", "source_label", "grid_meta"),
    sq.ConstructResult: ("h", "rho_star", "certificate", "theta", "f", "lambdas"),
    OrderFn: ("expr", "certified", "label"),
    SourceFn: ("expr", "certified", "label"),
    CompareVerdict: ("holds", "constant", "constants", "witness_alpha"),
    sq.SourceElement: ("x_dagger", "generator_w", "source_s", "model"),
    sq.MembershipVerdict: ("inside", "bound", "witness_index", "reason"),
    sq.SlopeFit: ("slope", "intercept", "r_squared", "window", "n_points"),
    sq.ConverseProbe: ("pair_certificate", "prediction", "verification", "agree",
                       "ratio_bounded"),
    InclusionEntry: ("source_label", "strong_pair", "domination_k", "elements_inside",
                     "elements_total", "included"),
    sq.MaximalSourceReport: ("filter_id", "rho_label", "level", "entries", "qualification"),
}

VERDICT_FIELD = {sq.PairVerdict: "holds", CompareVerdict: "holds",
                 sq.MembershipVerdict: "inside"}

# (filter id, params, order, certification grid) -- acceptance criterion 1
CATALOG = [
    ("tikhonov", {}, "alpha", None),
    ("tsvd", {}, "alpha", None),
    ("ex3_exp", {}, "exp(-1/alpha)", None),
    ("ex4_log", {}, "-1/ln(alpha)", (1e-7, 0.15, 448)),
    ("tikhonov", {}, "alpha^0.5", None),
    ("ex4_log", {}, "(-ln(alpha))^(-0.5)", (1e-7, 0.15, 448)),
    ("ex7_piecewise", {}, "alpha", None),
    ("ex8_osc", {"k": 1.0}, "alpha", None),
    ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None),
    ("ex10_osc", {}, "-1/ln(alpha)", (1e-7, 0.5, 448)),
]

# sha256 of json.dumps(to_json_dict(), indent=2) of each named output
JSON_DIGESTS = {
    "classify/ex10_osc/-1/ln(alpha)": "48e9218d565cdb7d37ed972fe9fb4f185c66c821a561e34ea891600c62db8de0",
    "classify/ex10_osc/-1/ln(alpha)/classical": "c484e7af5b38d40b349bd50dd6f2511ed1a0a784c2dba0108512f17e70d6e298",
    "classify/ex10_osc/-1/ln(alpha)/mp": "5f8ca911c5f0f0fd6a280b23a34fed4f7c95d9aa7a598fd55fec298eaf4de1b5",
    "classify/ex10_osc/-1/ln(alpha)/optimal": "8390bf94e99c58e5d4743f97e67aebb2da7ceace263566ed23841483dd8137f0",
    "classify/ex10_osc/-1/ln(alpha)/strong": "9665e4c2ec3ea7bc5f72d421b557e93b0194a3b5bdeae1ce2d9945b3a3543db3",
    "classify/ex10_osc/-1/ln(alpha)/weak": "9665e4c2ec3ea7bc5f72d421b557e93b0194a3b5bdeae1ce2d9945b3a3543db3",
    "classify/ex3_exp/exp(-1/alpha)": "ee19e5bbeaeca142da24e69fbd80f6aa97bfd3537c188006519e6a7414e88f9a",
    "classify/ex3_exp/exp(-1/alpha)/classical": "0f69974d0990a5b5627c2e98f34d63afab5b3b12a7b4895f10f345d3569cd84f",
    "classify/ex3_exp/exp(-1/alpha)/mp": "f442d7c8dbe1af68c640a5325c9e52ce29caf9e82b9871ade94f1378f21df26e",
    "classify/ex3_exp/exp(-1/alpha)/optimal": "0f3659690866666267552218d767070ab599fbc4d0c87ab18b6291c7823d76bf",
    "classify/ex3_exp/exp(-1/alpha)/strong": "108854c7f7af839bbbe4c0d5afea36a0e0df8b78f4b7af39a693563e3340ac4b",
    "classify/ex3_exp/exp(-1/alpha)/weak": "108854c7f7af839bbbe4c0d5afea36a0e0df8b78f4b7af39a693563e3340ac4b",
    "classify/ex4_log/(-ln(alpha))^(-0.5)": "97ef4eb42b49705fb59a10f3c57d56f429d34be85e634dbcd957c5fbff9c49e5",
    "classify/ex4_log/(-ln(alpha))^(-0.5)/classical": "c484e7af5b38d40b349bd50dd6f2511ed1a0a784c2dba0108512f17e70d6e298",
    "classify/ex4_log/(-ln(alpha))^(-0.5)/mp": "aaaf1fa117f00388abbc29d602ffcc8ade3a1352b06ce46fa0ebb38ccaac0824",
    "classify/ex4_log/(-ln(alpha))^(-0.5)/strong": "a243bc92fd273c3ed380022639c750c7390dcc6605e9dd1a5ca006a1933492d9",
    "classify/ex4_log/(-ln(alpha))^(-0.5)/weak": "63c11707e50feaf2e7484f14457060201c55078d8d12f3e0d4ab8bdd89339b14",
    "classify/ex4_log/-1/ln(alpha)": "a085c05793c184cbeaae8d17172cecb2aabc98847ca7a611d4b9748281dfb2e1",
    "classify/ex4_log/-1/ln(alpha)/classical": "c484e7af5b38d40b349bd50dd6f2511ed1a0a784c2dba0108512f17e70d6e298",
    "classify/ex4_log/-1/ln(alpha)/mp": "7a8a6d4cf45f17fc679cc9966ee75bcfb65f936f94152d7ec049ce98c5cbff04",
    "classify/ex4_log/-1/ln(alpha)/optimal": "63726495a245960e53653470340f7228d3418c682e88ce2b192f9bfeeec99860",
    "classify/ex4_log/-1/ln(alpha)/strong": "5592cf54e5b6d105f6b3ebb315b70bb0271543824879ba2298ad942a7faf9335",
    "classify/ex4_log/-1/ln(alpha)/weak": "5592cf54e5b6d105f6b3ebb315b70bb0271543824879ba2298ad942a7faf9335",
    "classify/ex7_piecewise/alpha": "345978ab8ce768bf0c45bb38644e943278519efaa39bfba471fe8550d8bc94f6",
    "classify/ex7_piecewise/alpha/classical": "b5f89cf55f4103a6ee35600cc6162355687d0923a470ffc2bef51ddd7708e866",
    "classify/ex7_piecewise/alpha/mp": "aaaac058a37f97ccce09a1177fd4cf5dc1c998f13b78314b8f6b36bb3d9e4505",
    "classify/ex7_piecewise/alpha/strong": "779aeb7ae66a834afccf107debd802b1b253692fdac90981c576ba1c42982579",
    "classify/ex7_piecewise/alpha/weak": "9cc086e96f85006c24aa3504ef2e77f7d621b66104c7c86f7c91c432faea55a2",
    "classify/ex8_osc/alpha": "9efae410a4649c0161ca0835d0c89f743695da82ec032abb45510c1acd1b28ca",
    "classify/ex8_osc/alpha/classical": "b5f89cf55f4103a6ee35600cc6162355687d0923a470ffc2bef51ddd7708e866",
    "classify/ex8_osc/alpha/mp": "e01086d997b10d8a200e7f18a6cd3ef3b927b7418ebec6cb6d52896d4a10de7d",
    "classify/ex8_osc/alpha/optimal": "aa8978b6ac8d6e62b4557004ae35ebea4834084ecf761774a28fcccc22edd86d",
    "classify/ex8_osc/alpha/strong": "050d200f97601f0e747623da63389d9893cc119d09085d268c40a3120625063f",
    "classify/ex8_osc/alpha/weak": "050d200f97601f0e747623da63389d9893cc119d09085d268c40a3120625063f",
    "classify/ex9_osc/exp(-1/sqrt(alpha))": "048ad2c338d713289888c95d46ee67741806af9a12c9983b2912bd465369ea4d",
    "classify/ex9_osc/exp(-1/sqrt(alpha))/classical": "0f69974d0990a5b5627c2e98f34d63afab5b3b12a7b4895f10f345d3569cd84f",
    "classify/ex9_osc/exp(-1/sqrt(alpha))/mp": "e62f57230184b72d8c48e47021df1b6a971f99f878ea1e2e147453a8b605a713",
    "classify/ex9_osc/exp(-1/sqrt(alpha))/optimal": "4e74c80ae11f7b5c1e4475235434d479a2bd122a8f63db4e571ad8069b85771a",
    "classify/ex9_osc/exp(-1/sqrt(alpha))/strong": "421651fc6de22eb4cad8a9e632bece07000a43bd991ff9469a4d243ede475f63",
    "classify/ex9_osc/exp(-1/sqrt(alpha))/weak": "421651fc6de22eb4cad8a9e632bece07000a43bd991ff9469a4d243ede475f63",
    "classify/tikhonov/alpha": "552eed284da01baddd278a023984a9148fc6319f836518ec00416b39e8f30372",
    "classify/tikhonov/alpha/classical": "b5f89cf55f4103a6ee35600cc6162355687d0923a470ffc2bef51ddd7708e866",
    "classify/tikhonov/alpha/mp": "8ddc537e548b8ac1ad3cd6d64c16b09bf1e7521dca73e5019871c6cd31a191f1",
    "classify/tikhonov/alpha/optimal": "08e146663bb5e10e2e13e40dc438180ae17627f738613fb2dfa56bccab1f2048",
    "classify/tikhonov/alpha/strong": "cf5e623afaf0c965c4a90bb023558a91b9ad2a9dc8929bf504ed2ac936e45ddc",
    "classify/tikhonov/alpha/weak": "cf5e623afaf0c965c4a90bb023558a91b9ad2a9dc8929bf504ed2ac936e45ddc",
    "classify/tikhonov/alpha^0.5": "cf5cc1ca0b08de676aafef6b31403072b68865266949351676994c2275b0006d",
    "classify/tikhonov/alpha^0.5/classical": "b5f89cf55f4103a6ee35600cc6162355687d0923a470ffc2bef51ddd7708e866",
    "classify/tikhonov/alpha^0.5/mp": "60657d8e8f91f1fcfefc4c559a03b2c1c31930289ed09781cf7468c455aa17fb",
    "classify/tikhonov/alpha^0.5/strong": "779aeb7ae66a834afccf107debd802b1b253692fdac90981c576ba1c42982579",
    "classify/tikhonov/alpha^0.5/weak": "16e9685285dc6a07bdb20abae3e51c9d339670cda492ebd1a8288d81b0f32be0",
    "classify/tikhonov/alpha^2": "e012d3a8b520f867d8ddeedb4d94fc5dd8ac648a2d7b4f837a8f66d9ad66218b",
    "classify/tikhonov/alpha^2/classical": "b5f89cf55f4103a6ee35600cc6162355687d0923a470ffc2bef51ddd7708e866",
    "classify/tikhonov/alpha^2/mp": "8ca843ed9b1c70bfe5d400fd0c32d35089dc598804074204f9ba9772c4ec69c3",
    "classify/tikhonov/alpha^2/strong": "779aeb7ae66a834afccf107debd802b1b253692fdac90981c576ba1c42982579",
    "classify/tikhonov/alpha^2/weak": "f5ce474ffc4e1d20724d805e5fb32c3fb3c590d58f42304d8563af94cc90f3a9",
    "classify/tsvd/alpha": "3793804533151aaf21755abbb7dc994f30f4b87bdfe524dc02144bee0cd31279",
    "classify/tsvd/alpha/classical": "0f69974d0990a5b5627c2e98f34d63afab5b3b12a7b4895f10f345d3569cd84f",
    "classify/tsvd/alpha/mp": "06dc2806c3b8716e982e5b8ae64d3da88df68d5fb79fa9ac4a435e8824a2c5ee",
    "classify/tsvd/alpha/strong": "779aeb7ae66a834afccf107debd802b1b253692fdac90981c576ba1c42982579",
    "classify/tsvd/alpha/weak": "adbf8c407a598f7f0b550c4087a2f1794d30acadc5c8a64e8322bdfbf3c1add0",
    "construct/showalter/certificate": "e9488bf2d888a9b09163337c374495cf6d02902f8306259d445d7c54cce61233",
    "converge/converse": "1be3236bcb620dc87ee94856006418360c148a80a8d33ac03ab27f5b90476c21",
    "converge/fit": "3b26eb22cf4f1a8abbabfebd3b11a1fe611b08093996c32837142d0f601b80b4",
    "converge/maximal": "c9baa71dca05336b30a68279329ce01740e4a8c1cf3b8b6faa5536e0c47609de",
    "mp/landweber": "f623e2d310aad9ec51dccf7aca1eb2a49c64cb59b60c417528d2860b532c7760",
    "mp/showalter": "ec13e1f3af30631e327a9132dccb8d02a215dd9094e27bb47e5eaf70d4c4e6e3",
}


def real_outputs() -> dict:
    """Name -> a real output, each a record or a container of them."""
    out = {}
    for fid, params, order, grid in CATALOG:
        rho = sq.order_fn(order, None if grid is None else np.geomspace(*grid))
        out[f"classify/{fid}/{order}"] = sq.classify(sq.get_filter(fid, **params), rho)
    tikhonov, showalter = sq.get_filter("tikhonov"), sq.get_filter("showalter")
    out["classify/tikhonov/alpha^2"] = sq.classify(tikhonov, sq.order_fn("alpha^2"))
    out["mp/showalter"] = sq.check_mp_qualification(
        showalter, sq.order_fn("exp(-1/sqrt(alpha))"))
    out["mp/landweber"] = sq.check_mp_qualification(
        sq.get_filter("landweber"), sq.order_fn("alpha"))
    out["construct/showalter"] = sq.construct_weak_qualification(showalter)

    rho, s = sq.order_fn("alpha"), sq.source_fn("lambda")
    model = sq.make_model("j^-2", 200)
    elem = sq.make_source_element(model, s, np.arange(1, 201) ** -0.6)
    study = sq.run_convergence(model, tikhonov, elem, rho)
    out["converge/element"] = elem
    out["converge/fit"] = sq.fit_order(study, (2.5e-4, 1e-3))
    out["converge/converse"] = sq.converse_probe(study, tikhonov, rho, s, rho)
    out["converge/maximal"] = sq.maximal_source_demo(
        model, tikhonov, rho, [s, sq.source_fn("lambda^2"), sq.certify_source_fn("1")])
    out["membership/outside"] = sq.membership_probe(model, np.ones(200), s)

    out["orders"] = [rho, sq.certify_order_fn("1")]
    out["expr"] = sq.parse_expr("2*exp(-1/sqrt(alpha)) - ln(alpha)^2")
    out["residual"] = sq.eval_residual(tikhonov, 0.1, 0.9)
    out["axioms"] = sq.verify_srm_axioms(tikhonov)
    out["precedes"] = [sq.precedes(rho, sq.order_fn("alpha^0.5")),
                       sq.precedes(sq.order_fn("alpha^0.5"), rho)]
    out["equivalent"] = sq.equivalent_at_origin(rho, sq.order_fn("2*alpha"))
    return out


@pytest.fixture(scope="module")
def outputs():
    return real_outputs()


def _walk(x, found):
    if type(x) in FIELDS:
        found.append(x)
        for name in FIELDS[type(x)]:
            _walk(getattr(x, name), found)
    elif isinstance(x, dict):
        for v in x.values():
            _walk(v, found)
    elif isinstance(x, (list, tuple)):
        for v in x:
            _walk(v, found)
    return found


@pytest.fixture(scope="module")
def records(outputs):
    return _walk(list(outputs.values()), [])


def test_every_record_class_is_covered(records):
    counts = Counter(type(r) for r in records)
    assert set(counts) == set(FIELDS)
    levels = {r.level for r in records if type(r) is sq.QualificationReport}
    assert levels == {"none", "weak", "strong", "optimal"}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
class TestRecordContract:
    def of(self, records, cls):
        found = [r for r in records if type(r) is cls]
        assert found
        return found

    def test_repr_lists_the_fields_in_order(self, records, cls):
        for rec in self.of(records, cls):
            body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in FIELDS[cls])
            assert repr(rec) == f"{cls.__name__}({body})"

    def test_equality_is_by_fields(self, records, cls):
        fields = FIELDS[cls]
        for rec in self.of(records, cls):
            values = {name: getattr(rec, name) for name in fields}
            assert rec == cls(**values) and not rec != cls(**values)
            # the first field no array is in, changed to a fresh object
            name = next(n for n in fields if not isinstance(values[n], np.ndarray))
            changed = cls(**{**values, name: object()})
            assert rec != changed and not rec == changed

    def test_bool_is_the_verdict(self, records, cls):
        for rec in self.of(records, cls):
            expected = getattr(rec, VERDICT_FIELD[cls]) if cls in VERDICT_FIELD else True
            assert bool(rec) is bool(expected)

    def test_attributes_cannot_be_assigned(self, records, cls):
        for rec in self.of(records, cls):
            first = FIELDS[cls][0]
            before = getattr(rec, first)
            with pytest.raises(AttributeError):
                setattr(rec, first, None)
            assert getattr(rec, first) is before


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2, allow_nan=False).encode()).hexdigest()


def _json_docs(outputs):
    docs = {name: rec.to_json_dict() for name, rec in outputs.items()
            if hasattr(rec, "to_json_dict")}
    for name, rec in outputs.items():
        if type(rec) is sq.QualificationReport:
            docs[f"{name}/classical"] = rec.classical_mu0.to_json_dict()
            docs[f"{name}/mp"] = rec.mp_verdict.to_json_dict()
            for level, verdict in rec.evidence.items():
                docs[f"{name}/{level}"] = verdict.to_json_dict()
    docs["construct/showalter/certificate"] = \
        outputs["construct/showalter"].certificate.to_json_dict()
    return docs


def test_json_bytes_are_pinned(outputs):
    digests = {name: _digest(doc) for name, doc in _json_docs(outputs).items()}
    assert digests == JSON_DIGESTS


DEFAULTED = [
    (sq.PairVerdict, {"holds": True}, ("witnesses", "detail")),
    (sq.AxiomReport, {"h1_finite": True, "h2_bounded": True, "h3_pointwise": True,
                      "h2_observed_sup": 1.0, "h3_worst_deviation": 0.0}, ("failures", "notes")),
    (sq.QualificationReport, {"filter_id": "f", "rho_label": "rho", "level": "none",
                              "srho_table": {}, "classical_mu0": None, "mp_verdict": None,
                              "evidence": {}}, ("grid_meta",)),
    (sq.MaximalSourceReport, {"filter_id": "f", "rho_label": "rho", "level": "none"},
     ("entries",)),
]


def _try_to_mutate(container):
    try:
        if hasattr(container, "keys"):
            container["mutated"] = True
        else:
            container.append("mutated")
    except (AttributeError, TypeError):
        pass


@pytest.mark.parametrize("cls, required, names", DEFAULTED, ids=lambda v: getattr(v, "__name__", ""))
def test_default_containers_are_not_shared(cls, required, names):
    first, second = cls(**required), cls(**required)
    for name in names:
        assert len(getattr(first, name)) == 0
        _try_to_mutate(getattr(first, name))
        assert len(getattr(second, name)) == 0
        assert len(getattr(cls(**required), name)) == 0
