from minusone.precision import PrecisionContext
from minusone.quadrature import integrate, integrate_component
from minusone import families as F

CTX = PrecisionContext(50)
MP = CTX.mp


def test_constant_on_interval():
    r = integrate([(MP.mpf(-1), MP.mpf(1))], lambda x: MP.mpf(1), CTX, tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - 2) < CTX.tol(6)


def test_gaussian_mass():
    r = integrate([(MP.mpf("-inf"), MP.mpf("inf"))], lambda x: MP.exp(-x * x), CTX,
                  tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.sqrt(MP.pi)) < CTX.tol(6)


def test_endpoint_singularity_absorbed():
    r = integrate([(MP.mpf(-1), MP.mpf(1))], lambda x: 1 / MP.sqrt(1 - x * x), CTX,
                  tol=MP.mpf("1e-30"))
    assert r.converged
    assert abs(r.value - MP.pi) < MP.mpf("1e-28")


def test_semi_infinite_with_singular_end():
    # int_0^inf x^(-1/2) e^(-x) dx = Gamma(1/2)
    r = integrate([(MP.mpf(0), MP.mpf("inf"))], lambda x: MP.exp(-x) / MP.sqrt(x), CTX,
                  tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.sqrt(MP.pi)) < CTX.tol(4)


def test_gaussian_half_line_with_singular_end():
    # int_0^inf x^(1/2) e^(-x^2) dx = Gamma(3/4)/2
    r = integrate([(MP.mpf(0), MP.mpf("inf"))], lambda x: MP.sqrt(x) * MP.exp(-x * x), CTX,
                  tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.gamma(MP.mpf(3) / 4) / 2) < MP.mpf("1e-40")


def test_gsbi_normalized_mass():
    params = F.make_params("gsbi", CTX, a="1", b="1", c="1")
    spec = F.weight_spec("gsbi", params, CTX)
    r = integrate(spec, lambda x: MP.mpf(1), CTX, tol=CTX.tol(12))
    assert r.converged
    assert abs(r.value * spec.measure_prefactor - MP.mpf("0.5")) < MP.mpf("1e-15")


def test_tolerance_halving_self_consistency():
    # a converged value never moves by more than the old error estimate
    comps = [(MP.mpf(-1), MP.mpf(1))]
    f = lambda x: MP.exp(x) * (1 - x * x) ** MP.mpf("0.25")
    loose = integrate(comps, f, CTX, tol=MP.mpf("1e-12"))
    tight = integrate(comps, f, CTX, tol=MP.mpf("1e-24"))
    assert loose.converged and tight.converged
    assert abs(loose.value - tight.value) <= max(loose.error_estimate, MP.mpf("1e-12"))


def test_non_convergence_reported():
    r = integrate_component(lambda x: MP.exp(-x * x), MP.mpf("-inf"), MP.mpf("inf"), CTX,
                            tol=MP.mpf("1e-40"), max_levels=2)
    assert not r.converged
    assert len(r.last_two) == 2
    assert r.error_estimate > MP.mpf("1e-40")


def test_weight_spec_integration_interface():
    spec = F.weight_spec("gegenbauer", F.make_params("gegenbauer", CTX, alpha="0.5"), CTX)
    r = integrate(spec, lambda x: x * x, CTX, tol=CTX.tol(8))
    assert r.converged
    assert abs(r.value - MP.mpf(2) / 3) < CTX.tol(4)


def test_multi_piece_and_gamma_modulus_masses():
    # two gaussian half-lines, two algebraic pieces (twice), |Gamma|^2 on the whole line
    for fid in ("generalized-hermite", "chihara", "big-minus1-jacobi",
                "continuous-minus1-hahn-1"):
        params = F.make_params(fid, CTX, **F.fixture_points(fid)[0])
        spec = F.weight_spec(fid, params, CTX)
        r = integrate(spec, lambda x: 1, CTX, tol=CTX.tol(12))
        mass = F.norm(fid, params, 0, CTX)
        assert r.converged, fid
        assert abs(r.value * spec.measure_prefactor - mass) <= MP.mpf("1e-40") * abs(mass), fid
