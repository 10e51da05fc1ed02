import json
import warnings
from fractions import Fraction

import pytest

from moontrace import cli, identities
from moontrace.lattice import identity_spec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_expand_delta_json(capsys):
    code, out, _ = run(capsys, "expand", "--what", "delta", "--order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["what"] == "delta"
    assert payload["order"] == "6"
    series = payload["series"]
    assert series["denominator"] == 1
    assert series["order_num"] == 6
    assert series["terms"][0] == {"exp_num": 1, "coeff": "1"}
    assert series["terms"][1] == {"exp_num": 2, "coeff": "-24"}


def test_expand_eta_fractional_exponents(capsys):
    code, out, _ = run(capsys, "expand", "--what", "eta", "--order", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["series"]["denominator"] == 24
    assert payload["series"]["terms"][0] == {"exp_num": 1, "coeff": "1"}


def test_expand_text_format(capsys):
    code, out, _ = run(capsys, "expand", "--what", "jfunction", "--order", "3",
                       "--format", "text")
    assert code == 0
    assert "what: jfunction" in out
    assert "196884" in out


def test_expand_deterministic(capsys):
    _, out1, _ = run(capsys, "expand", "--what", "theta:2", "--order", "9")
    _, out2, _ = run(capsys, "expand", "--what", "theta:2", "--order", "9")
    assert out1 == out2


def test_expand_unknown_exits_2(capsys):
    code, _, err = run(capsys, "expand", "--what", "zeta", "--order", "4")
    assert code == 2
    assert "error" in err


def test_verify_theta_quartic(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "theta-quartic")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["agree"] is True
    assert payload["certified_order"] == "20"


def test_verify_eta_quotients(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "theta-eta-quotients",
                       "--order", "10")
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_verify_fock_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "fock-oracle:16",
                       "--order", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    # brute force runs at min(cap, order - 1) = grade 4
    assert payload["certified_order"] == "5"
    assert "closed" in payload["routes"] and "brute" in payload["routes"]


def test_verify_prop31(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "prop31:2", "--order", "6")
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nope")
    assert code == 2
    assert "error" in err


def test_verify_parameter_rejected(capsys):
    code, _, err = run(capsys, "verify", "--identity", "theta-quartic:5")
    assert code == 2
    assert "error" in err


def test_vacuum_trace(capsys):
    code, out, _ = run(capsys, "vacuum-trace", "--k", "1", "--order", "4")
    assert code == 0
    payload = json.loads(out)
    series = payload["series"]
    # leading exponent is -1: a pole, constant term absent
    assert series["terms"][0]["exp_num"] == -1
    assert all(t["exp_num"] != 0 for t in series["terms"])


def test_lattice_trace_norm_16(capsys):
    code, out, _ = run(capsys, "lattice-trace", "--norm", "16", "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["terms"] == []  # identically zero
    assert payload["fits"] == {"space": "S_8", "dim": 0, "coefficients": []}


def test_lattice_trace_norm_24(capsys):
    code, out, _ = run(capsys, "lattice-trace", "--norm", "24", "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["fits"]["space"] == "S_12"
    assert payload["fits"]["coefficients"] == ["-3/256"]


def test_lattice_trace_unrealizable_warns(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, _ = run(capsys, "lattice-trace", "--norm", "20", "--order", "3")
    assert code == 0  # exploratory norm: no fit demanded even though none exists
    assert json.loads(out)["fits"] == {"space": "S_10", "dim": 0, "coefficients": None}


def test_lattice_trace_refuses_space_before_series(capsys, monkeypatch):
    # S_256 cannot be certified at order 20; the refusal must not wait for z_total
    def refuse(*_args):
        raise AssertionError("z_total ran before the cusp space was certified")

    monkeypatch.setattr(cli.fock, "z_total", refuse)
    code, out, err = run(capsys, "lattice-trace", "--norm", "512", "--order", "20")
    assert code == 2
    assert out == ""
    assert "order 20 too small to certify independence of M_244" in err


def test_spaces(capsys):
    code, out, _ = run(capsys, "spaces", "--kind", "S", "--weight", "12",
                       "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "S" and payload["weight"] == 12
    assert payload["labels"] == ["Delta*1"]


def test_equivariant_from_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    identity_spec(16).save(path)
    code, out, _ = run(capsys, "equivariant", "--spec", str(path),
                       "--norm", "16", "--order", "5")
    assert code == 0
    assert json.loads(out)["series"]["terms"] == []


def test_equivariant_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "equivariant", "--spec", str(tmp_path / "nope.json"),
                       "--norm", "16", "--order", "4")
    assert code == 2
    assert "input error" in err


def test_equivariant_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "equivariant", "--spec", str(path),
                       "--norm", "16", "--order", "4")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("part", ["gram", "embedding", "alpha"])
def test_equivariant_non_integral_spec_exits_2(capsys, tmp_path, part):
    obj = identity_spec(16).to_json_obj()
    if part == "gram":
        obj["ambient"]["gram"][0][0] = 6.7
    elif part == "embedding":
        obj["fixed_sublattice"] = {"rank": 1, "gram": [[6]], "embedding": [[1.5] + [0] * 23]}
    else:
        obj["alpha"][0] = 0.5
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "equivariant", "--spec", str(path),
                         "--norm", "16", "--order", "4")
    assert code == 2
    assert out == ""
    assert "is not an integer" in err


@pytest.mark.parametrize("edit, message", [
    (lambda obj: {k: v for k, v in obj.items() if k != "trT"}, "spec lacks the field 'trT'"),
    (lambda obj: {**obj, "ambient": {"rank": 24, "gram": 5}}, "spec has the wrong structure"),
    (lambda obj: [obj], "spec has the wrong structure"),
    (lambda obj: {**obj, "shape_a": [[1, 23]]}, "cycle shape degree 23 != rank 24"),
], ids=["missing-trT", "scalar-gram", "top-level-list", "shape-degree"])
def test_equivariant_malformed_spec_exits_2(capsys, tmp_path, edit, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(edit(identity_spec(16).to_json_obj())))
    code, out, err = run(capsys, "equivariant", "--spec", str(path),
                         "--norm", "16", "--order", "4")
    assert code == 2
    assert out == ""
    assert message in err


def test_order_must_be_at_least_one(capsys):
    with pytest.raises(SystemExit):
        cli.main(["expand", "--what", "delta", "--order", "1/2"])
    capsys.readouterr()


def exit_code(capsys, *argv):
    """Exit status of a request, whether main returns it or argparse exits."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_prop31_negative_kmax_refused(capsys):
    # range(KMAX + 1) is empty for KMAX < 0: the check would pass vacuously
    code, out, err = exit_code(capsys, "verify", "--identity", "prop31:-1")
    assert code == 2
    assert out == "" and "0..32" in err


def scale_theta(monkeypatch, which):
    """Make theta constant `which` three times too large."""
    from moontrace import modular
    theta = modular.theta
    monkeypatch.setattr(
        modular, "theta", lambda i, order: theta(i, order) * (3 if i == which else 1)
    )


def test_route_disagreement_exits_1(capsys, monkeypatch):
    # one coefficient of the sector form off by one leaves M_12, so its exact
    # projection fails: a failed identity (exit 1), not an input error
    from moontrace import fock
    form = fock._sector_form

    def perturbed(L):
        out = dict(form(L))
        key = min(out)
        out[key] += 1
        return out

    monkeypatch.setattr(fock, "_sector_form", perturbed)
    monkeypatch.setattr(fock, "_z_form", fock._z_form.__wrapped__)  # bypass the cache
    code, out, err = exit_code(capsys, "lattice-trace", "--norm", "24", "--order", "4")
    assert code == 1
    assert out == "" and "identity failed" in err


def test_broken_theta2_fails_equivariant_identity(capsys, monkeypatch):
    # lattice-trace no longer reads theta; the equivariant identity sets the
    # lattice/theta route against the ring route, which shares no theta product
    scale_theta(monkeypatch, 2)
    code, out, _ = exit_code(capsys, "verify", "--identity", "equivariant-identity-case:24",
                             "--order", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail" and payload["agree"] is False


def test_wrong_theta1_fails_its_eta_quotient(capsys, monkeypatch):
    # z_untwisted takes theta1 on trust; the eta-quotient identity catches it
    scale_theta(monkeypatch, 1)
    code, out, _ = exit_code(capsys, "verify", "--identity", "theta-eta-quotients",
                             "--order", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail" and payload["agree"] is False


@pytest.mark.parametrize("name", identities.IDENTITIES)
@pytest.mark.parametrize("order", ["5/2", "3", "20"])
def test_every_identity_certifies_within_the_request(capsys, name, order):
    code, out, _ = exit_code(capsys, "verify", "--identity", name, "--order", order)
    payload = json.loads(out)
    assert code == 0 and payload["agree"] is True and payload["routes"]
    assert Fraction(payload["certified_order"]) <= Fraction(order)


@pytest.mark.parametrize("name", identities.IDENTITIES)
def test_library_verify_refuses_non_positive_orders(monkeypatch, name):
    # some checks compare nothing at order <= 0 and would pass vacuously
    def no_work(*_args):
        raise AssertionError("work started on a refused order")
    _, default, limit = identities.IDENTITIES[name]
    monkeypatch.setitem(identities.IDENTITIES, name, (no_work, default, limit))
    for order in (Fraction(-3, 2), -1, Fraction(-1, 2), 0):
        with pytest.raises(ValueError, match=f"^the order must be positive, got {order}$"):
            identities.verify(name, order)
    with pytest.raises(AssertionError):
        identities.verify(name, Fraction(1, 2))


@pytest.mark.parametrize("identity, order", [
    ("fock-oracle:16", "1"), ("fock-oracle:16", "3/2"),
    ("twisted-oracle:16", "1"), ("twisted-oracle:16", "2"),
])
def test_vacuous_oracle_order_refused(capsys, identity, order):
    # below these orders both legs are the bare leading term: nothing is compared
    code, out, err = exit_code(capsys, "verify", "--identity", identity, "--order", order)
    assert code == 2 and out == "" and "order at least" in err


@pytest.mark.parametrize("argv", [
    ("expand", "--what", "delta", "--order", str(cli.MAX_ORDER + 1)),
    ("vacuum-trace", "--k", str(cli.MAX_K + 1)),
    ("lattice-trace", "--norm", str(cli.MAX_NORM + 2)),
    ("equivariant", "--spec", "spec.json", "--norm", "100000"),
    ("spaces", "--kind", "M", "--weight", str(cli.MAX_WEIGHT + 2)),
    ("verify", "--identity", f"ideal:{cli.MAX_NORM + 8}"),
    ("verify", "--identity", f"prop31:{cli.MAX_K + 1}"),
    ("expand", "--what", f"eisenstein:{cli.MAX_WEIGHT + 2}"),
])
def test_unbounded_input_refused_before_work(capsys, monkeypatch, argv):
    from moontrace import fock, lattice, modular, virasoro

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started on refused input")
    for module, name in ((modular, "delta"), (virasoro, "vacuum_zpoint"), (fock, "z_total"),
                         (lattice.EquivariantSpec, "load"), (modular, "space_basis"),
                         (modular, "eisenstein"), (modular, "bernoulli")):
        monkeypatch.setattr(module, name, no_work)
    code, out, _ = exit_code(capsys, *argv)
    assert code == 2 and out == ""


def test_input_limits_accept_their_bounds(capsys):
    code, out, _ = exit_code(capsys, "expand", "--what", f"eisenstein:{cli.MAX_WEIGHT}",
                             "--order", "3")
    assert code == 0 and json.loads(out)["series"]["terms"]
    parser = cli._build_parser()
    args = parser.parse_args(["vacuum-trace", "--k", str(cli.MAX_K),
                              "--order", str(cli.MAX_ORDER)])
    assert args.k == cli.MAX_K and args.order == cli.MAX_ORDER
    assert parser.parse_args(["lattice-trace", "--norm", str(cli.MAX_NORM)]).norm == cli.MAX_NORM
    assert parser.parse_args(["spaces", "--kind", "F", "--weight",
                              str(-cli.MAX_WEIGHT)]).weight == -cli.MAX_WEIGHT


@pytest.mark.parametrize("argv", [
    ("expand", "--what", "bogus"),
    ("expand", "--what", "delta", "--order", "0"),
    ("verify", "--identity", "no-such-identity"),
    ("vacuum-trace", "--k", "-1"),
    ("lattice-trace", "--norm", "7"),
    ("spaces", "--kind", "S", "--weight", "3"),
    ("equivariant", "--spec", "no-such-spec.json", "--norm", "16"),
    ("verify", "--identity", "fock-oracle:16", "--skip-oracle"),
])
def test_malformed_requests_exit_2(capsys, argv):
    code, out, _ = exit_code(capsys, *argv)
    assert code == 2 and out == ""
