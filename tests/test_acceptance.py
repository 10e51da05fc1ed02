"""End-to-end acceptance run: one test per criterion, one printed line each."""
from fractions import Fraction as F

from conftest import record

from moontrace import fock, identities, modular


def verified(identity, order):
    """The registry's verdict on `identity`, certified through at least `order`."""
    ok, certified, _ = identities.verify(identity, order)
    return ok and certified >= order


def test_criterion_01_theta_quartic():
    ok = verified("theta-quartic", 21)
    assert record(1, "theta quartic identity vanishes through q^20", ok)


def test_criterion_02_theta_eta_quotients():
    ok = verified("theta-eta-quotients", 21)
    assert record(2, "theta constants match their eta-quotient forms through q^20", ok)


def test_criterion_03_fock_oracle():
    ok = all(verified(f"fock-oracle:{L}", 7) for L in (2, 16, 24))
    # twisted: six half-integer units reach three grades above the q^{3/2} floor
    ok = ok and all(verified(f"twisted-oracle:{L}", 5) for L in (16, 24))
    assert record(3, "brute-force Fock traces equal the closed forms", ok)


def test_criterion_04_norm_16_vanishes():
    z = fock.z_total(16, 11)
    ok = z.is_zero() and z.order >= 11
    assert record(4, "two-sector trace at norm 16 is identically zero through q^10", ok)


def test_criterion_05_cusp_form_fits():
    z24 = fock.z_total(24, 11)
    fit24 = modular.fit(z24, modular.space_basis("S", 12, 11))
    z32 = fock.z_total(32, 11)
    fit32 = modular.fit(z32, modular.space_basis("S", 16, 11))
    ok = fit24 == [F(-3, 256)] and fit32 == [F(-225, 4096)]
    assert record(5, "norms 24 and 32 land in the weight 12 and 16 cusp lines", ok)


def test_criterion_06_vacuum_traces():
    # k = 0..5: alternating sign of the q^-1 coefficient, constant 0, fits F_2k
    ok = verified("prop31:5", 16)
    assert record(
        6, "vacuum descendant traces: alternating q^-1 pole, no constant, in F_2k", ok
    )


def test_criterion_07_ideal_membership():
    ok, certified, words = identities.verify("ideal:24", 11)
    ok = ok and certified >= 11 and len(words) == 29
    assert record(7, "descendant traces of the norm-24 seed are ideal members", ok)


def test_criterion_08_serre_closure():
    ok = modular.serre_derive(modular.delta(16), 12).is_zero()
    for k in range(4, 16, 2):
        sp = modular.space_basis("M", k, 16)
        target = modular.space_basis("M", k + 2, 16)
        for b in sp.basis:
            ok = ok and modular.fit(modular.serre_derive(b, k), target) is not None
    assert record(8, "Serre derivative maps M_k into M_{k+2} and kills Delta", ok)


def test_criterion_09_equivariant_identity_case():
    ok = all(verified(f"equivariant-identity-case:{L}", 11) for L in (16, 24))
    assert record(9, "identity-automorphism trace equals the two-sector form", ok)


def test_criterion_10_pole_space_dims():
    f0 = modular.space_basis("F", 0, 16)
    ok = f0.dim == 1 and f0.basis[0].coeff(1) == 196884
    inv_delta = modular.delta(20).invert()
    for k in range(0, 14, 2):
        mk = modular.space_basis("M", k + 12, 16)
        # independent route: rank of the constant-term functional on M_{k+12}
        rank = int(any((b * inv_delta).coeff(0) != 0 for b in mk.basis))
        ok = ok and modular.space_basis("F", k, 16).dim == mk.dim - rank
    assert record(10, "pole-space dimensions agree between two linear routes", ok)


def test_criterion_11_brute_sector_assembly():
    ok = all(
        fock.z_total_brute(L, 4) == fock.z_total(L, 4) for L in (16, 24)
    )
    assert record(11, "both-sector brute assembly matches the closed form thru q^3", ok)
