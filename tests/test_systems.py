"""Model definitions: derived Jacobians, exact solutions, wave speeds."""

import dataclasses
import warnings

import numpy as np
import pytest

from aderfv import systems
from aderfv.grid import Grid, RunConfig
from aderfv.solver import run
from aderfv.systems import (
    conserved_to_primitive,
    euler_ideal_gas,
    leveque_yee,
    linear_ck_matrices,
    linear_system,
    noncons_system,
    primitive_to_conserved,
    scalar_advection_reaction,
)

ALL_FACTORIES = [
    scalar_advection_reaction,
    leveque_yee,
    linear_system,
    noncons_system,
    euler_ideal_gas,
]


def _random_states(system, rng, count):
    """Draw admissible states roughly centred on the system's initial data."""
    x = rng.uniform(0.0, 1.0, size=count)
    base = system.initial_condition(x)
    states = base * (1.0 + 0.2 * rng.standard_normal(base.shape))
    return states[system.admissible(states)]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_source_jacobian_matches_finite_differences(factory):
    system = factory()
    rng = np.random.default_rng(42)
    states = _random_states(system, rng, 140)[:100]
    assert len(states) >= 80
    h = 1e-7
    for q in states:
        jac = system.source_jacobian(q)
        fd = np.empty((system.m, system.m))
        for j in range(system.m):
            dq = np.zeros(system.m)
            dq[j] = h * (1.0 + abs(q[j]))
            fd[:, j] = (system.source(q + dq) - system.source(q - dq)) / (2 * dq[j])
        scale = 1.0 + np.max(np.abs(jac))
        assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_descriptor_needs_exactly_one_transport_form():
    system = noncons_system()
    with pytest.raises(ValueError, match="exactly one"):
        dataclasses.replace(system, flux_terms=lambda q: [q[0], q[1]])
    with pytest.raises(ValueError, match="exactly one"):
        dataclasses.replace(system, matrix_rows=None)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_derived_forms_broadcast_over_batch_axes(factory):
    system = factory()
    m = system.m
    states = _random_states(system, np.random.default_rng(9), 30)[:24].reshape(4, 6, m)
    mats = system.matrix(states)
    src = system.source(states)
    jac = system.source_jacobian(states)
    assert mats.shape == jac.shape == (4, 6, m, m) and src.shape == (4, 6, m)
    for idx in np.ndindex(4, 6):
        np.testing.assert_array_equal(mats[idx], system.matrix(states[idx]))
        np.testing.assert_array_equal(src[idx], system.source(states[idx]))
        np.testing.assert_array_equal(jac[idx], system.source_jacobian(states[idx]))


@pytest.mark.parametrize(
    "factory", [scalar_advection_reaction, leveque_yee, linear_system, euler_ideal_gas]
)
def test_flux_jacobian_is_matrix(factory):
    # For the conservative models the quasilinear matrix must be dF/dq.
    system = factory()
    assert system.flux_terms is not None
    rng = np.random.default_rng(7)
    h = 1e-7
    for q in _random_states(system, rng, 20):
        a = system.matrix(q)
        fd = np.empty((system.m, system.m))
        for j in range(system.m):
            dq = np.zeros(system.m)
            dq[j] = h * (1.0 + abs(q[j]))
            fp = np.array([t for t in system.flux_terms(q + dq)], dtype=float)
            fm = np.array([t for t in system.flux_terms(q - dq)], dtype=float)
            fd[:, j] = (fp - fm) / (2 * dq[j])
        assert np.max(np.abs(a - fd)) / (1.0 + np.max(np.abs(a))) < 1e-6


def _pde_residual(system, x, t, h):
    """Central-difference residual of q_t + A(q) q_x - S(q) at one point."""

    def q(xx, tt):
        return system.exact_solution(np.array([xx]), tt)[0]

    qt = (q(x, t + h) - q(x, t - h)) / (2 * h)
    qx = (q(x + h, t) - q(x - h, t)) / (2 * h)
    q0 = q(x, t)
    return qt + system.matrix(q0) @ qx - system.source(q0)


@pytest.mark.parametrize(
    "factory", [scalar_advection_reaction, linear_system, noncons_system, euler_ideal_gas]
)
def test_exact_solution_satisfies_pde(factory):
    # Residual of the registered exact solution must vanish at O(h^2).
    system = factory()
    pts = [(0.13, 0.21), (0.41, 0.05), (0.77, 0.33)]
    for x, t in pts:
        r1 = np.max(np.abs(_pde_residual(system, x, t, 1e-4)))
        r2 = np.max(np.abs(_pde_residual(system, x, t, 5e-5)))
        assert r1 < 1e-5
        # halving h must shrink the residual about fourfold (unless it is
        # already at roundoff, as for constant-velocity profiles)
        assert r2 < max(0.4 * r1, 5e-12)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_exact_solution_matches_initial_condition(factory):
    system = factory()
    if system.exact_solution is None:
        pytest.skip("no exact solution registered")
    x = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(
        system.exact_solution(x, 0.0), system.initial_condition(x), atol=1e-13
    )


def test_euler_flux_matches_closed_form():
    # F = (rho u, rho u^2 + p, u (E + p)), over a batch of states.
    system = euler_ideal_gas()
    states = _random_states(system, np.random.default_rng(5), 30)[:24].reshape(4, 6, 3)
    rho, u, p = np.moveaxis(conserved_to_primitive(states), -1, 0)
    expect = np.stack([rho * u, rho * u**2 + p, u * (states[..., 2] + p)], axis=-1)
    np.testing.assert_allclose(system.flux(states), expect, rtol=1e-13, atol=0)


def test_flux_form_is_a_source_free_flux_law():
    # Only a flux law without a source is updated in flux form; a matrix_rows
    # law has no flux to evaluate.
    forms = {make.__name__: make().flux_form for make in ALL_FACTORIES}
    assert forms == {
        "scalar_advection_reaction": False,
        "leveque_yee": False,
        "linear_system": False,
        "noncons_system": False,
        "euler_ideal_gas": True,
    }
    assert dataclasses.replace(linear_system(), source_terms=None).flux_form
    assert not dataclasses.replace(noncons_system(), source_terms=None).flux_form
    with pytest.raises(ValueError, match="no flux"):
        noncons_system().flux(np.ones(2))


def _euler_speeds(q):
    rho, u, p = np.moveaxis(conserved_to_primitive(q, 1.4), -1, 0)
    return np.abs(u) + np.sqrt(1.4 * p / rho)


# Each law with its largest |eigenvalue| in closed form at states (n, m): the
# oracle for the wave speed that ``max_wave_speed`` takes from A(Q).
CLOSED_FORM_SPEEDS = {
    "scalar": (lambda: scalar_advection_reaction(lam=-2.5), lambda q: np.full(len(q), 2.5)),
    "leveque_yee": (leveque_yee, lambda q: np.ones(len(q))),
    "linear": (lambda: linear_system(lam=-1.5), lambda q: np.full(len(q), 1.5)),
    # Eigenvalues lam +- sqrt(u).
    "noncons": (lambda: noncons_system(lam=-0.4), lambda q: 0.4 + np.sqrt(q[:, 0])),
    # Eigenvalues u - c, u, u + c.
    "euler": (euler_ideal_gas, _euler_speeds),
}


@pytest.mark.parametrize("law", CLOSED_FORM_SPEEDS)
def test_max_wave_speed_matches_closed_form_speeds(law):
    make, speeds = CLOSED_FORM_SPEEDS[law]
    system = make()
    states = _random_states(system, np.random.default_rng(11), 40)
    assert len(states) >= 30
    expect = speeds(states)
    got = [system.max_wave_speed(q[None]) for q in states]
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    assert system.max_wave_speed(states) == pytest.approx(expect.max(), rel=1e-12)


def test_primitive_conserved_roundtrip():
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.1, 3.0, size=50)
    u = rng.uniform(-2.0, 2.0, size=50)
    p = rng.uniform(0.1, 5.0, size=50)
    q = primitive_to_conserved(rho, u, p, gamma=1.4)
    back = conserved_to_primitive(q, gamma=1.4)
    np.testing.assert_allclose(back, np.stack([rho, u, p], axis=-1), rtol=1e-13)


def test_stiff_source_shape():
    # beta q (q - 1) (q - 1/2) with beta = -1000: equilibria at 0, 1/2, 1 and
    # a push toward 1 from above the unstable middle state.
    system = leveque_yee(beta=-1000.0)
    for q0 in (0.0, 0.5, 1.0):
        assert system.source(np.array([q0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert system.source(np.array([0.75]))[0] == pytest.approx(46.875)
    assert system.source(np.array([0.25]))[0] < 0.0


def test_leveque_yee_initial_step():
    system = leveque_yee(step_position=0.3)
    x = np.array([0.0, 0.29, 0.31, 1.0])
    np.testing.assert_allclose(system.initial_condition(x)[:, 0], [1.0, 1.0, 0.0, 0.0])


def test_noncons_admissibility_guard():
    system = noncons_system()
    assert system.admissible(np.array([1.0, 2.0]))
    assert not system.admissible(np.array([-0.1, 2.0]))


@pytest.mark.parametrize(
    "state, admitted",
    [([0.0, 0.0, 1.0], False), ([0.0, 1.0, 1.0], False), ([-1.0, 0.5, 6.0], False),
     ([1.0, 0.5, -1.0], False), ([1.0, 0.5, 6.0], True)],
)
def test_euler_admissibility_answers_at_zero_density_without_a_warning(state, admitted):
    # At rho = 0 the velocity is 0 / 0 or 1 / 0: the test rejects the state
    # rather than raising the division's warning as an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = euler_ideal_gas().admissible(np.array([state]))
    assert mask.tolist() == [admitted]


@pytest.mark.parametrize("shape", [(2,), (4, 2), (3, 5, 2)])
def test_law_without_admissibility_test_accepts_every_state(shape):
    # A law built without ``admissible`` passes every state, even a
    # non-finite one, with one mask entry per state of the batch.
    system = linear_system()
    q = np.random.default_rng(1).normal(scale=1e3, size=shape)
    q.flat[-1] = np.nan
    mask = system.admissible(q)
    assert mask.dtype == bool and mask.shape == shape[:-1]
    assert mask.all()


def test_max_wave_speed():
    scalar = scalar_advection_reaction(lam=2.5)
    g = np.linspace(0.0, 1.0, 9)
    states = scalar.initial_condition(g)
    assert scalar.max_wave_speed(states) == pytest.approx(2.5)

    euler = euler_ideal_gas()
    q = primitive_to_conserved(1.0, 1.0, 1.0, gamma=1.4)
    assert euler.max_wave_speed(q[None, :]) == pytest.approx(1.0 + np.sqrt(1.4))


def test_spectral_radius_of_one_by_one_is_the_entry():
    # A 1 x 1 matrix is its own eigenvalue: the shortcut equals LAPACK's
    # value bit for bit, and a non-finite entry still gives NaN.
    rng = np.random.default_rng(23)
    for shape in [(1, 1), (7, 1, 1), (3, 5, 1, 1)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        assert systems._spectral_radius(a) == float(np.max(np.abs(np.linalg.eigvals(a))))
    for bad in (np.nan, np.inf, -np.inf):
        a = rng.standard_normal((6, 1, 1))
        a[4] = bad
        assert np.isnan(systems._spectral_radius(a))


def _per_level_ck_matrices(a, b, order):
    """linear_ck_matrices' recursion one matrix at a time: C'_{k+1, j} =
    C'_{k, j} B - C'_{k, j-1} A, each j in turn."""
    m = a.shape[0]
    prev = np.zeros((order + 1, m, m))
    prev[0] = np.eye(m)
    rows = []
    for _ in range(order):
        nxt = np.zeros_like(prev)
        for j in range(order + 1):
            nxt[j] = prev[j] @ b
            if j > 0:
                nxt[j] -= prev[j - 1] @ a
        rows.append(nxt.copy())
        prev = nxt
    return np.array(rows)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_linear_ck_matrices_match_the_per_level_recursion(m):
    rng = np.random.default_rng(m)
    for order in range(1, 6):
        for _ in range(20):
            a, b = rng.standard_normal((2, m, m)) * rng.uniform(0.1, 10.0, (2, 1, 1))
            np.testing.assert_array_equal(
                linear_ck_matrices(a, b, order), _per_level_ck_matrices(a, b, order)
            )


@pytest.mark.parametrize("m", [1, 2])
def test_linear_ck_matrices_at_order_zero_are_an_empty_table(m):
    # No rows, but the table's shape (order, order + 1, m, m) all the same.
    a, b = np.eye(m), -np.eye(m)
    mats = linear_ck_matrices(a, b, 0)
    assert mats.shape == (0, 1, m, m)
    np.testing.assert_array_equal(mats, linear_ck_matrices(a, b, 3)[:0, :1])


def _time_derivative_tables_oracle(a, b, order):
    """Spatial-derivative chains of d_t^k q for q_t = b q - a q_x.

    Row recursion on symbols: if G holds the spatial derivatives of
    d_t^(k) q then the next level is G'_j = b G_j - a G_(j+1).
    """
    m = a.shape[0]
    # coeffs[k][j] multiplies the j-th spatial derivative of q
    coeffs = [{0: np.eye(m)}]
    for _ in range(order):
        nxt = {}
        for j, mat in coeffs[-1].items():
            nxt[j] = nxt.get(j, 0) + b @ mat
            nxt[j + 1] = nxt.get(j + 1, 0) - a @ mat
        coeffs.append(nxt)
    return coeffs


def test_linear_ck_matrix_recursion():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))  # deliberately non-commuting
    order = 4
    mats = linear_ck_matrices(a, b, order)
    oracle = _time_derivative_tables_oracle(a, b, order)
    for k in range(1, order + 1):
        for j in range(k + 1):
            np.testing.assert_allclose(mats[k - 1, j], oracle[k][j], atol=1e-12)


@pytest.mark.parametrize(
    "system,a,b",
    [
        (scalar_advection_reaction(lam=1.7, beta=-0.3), [[1.7]], [[-0.3]]),
        (linear_system(lam=1.3, beta=-0.7), [[0.0, 1.3], [1.3, 0.0]], -0.7 * np.eye(2)),
    ],
)
def test_closed_ck_derived_from_the_law(system, a, b):
    # The complex step returns the constant A and dS/dQ exactly, so the
    # derived table equals the hand-built one bit for bit at every order.
    assert system.constant_coefficients
    for order in range(1, 6):
        mats = system.closed_ck(order)
        np.testing.assert_array_equal(mats, linear_ck_matrices(np.array(a), b, order))
        assert not mats.flags.writeable
    with pytest.raises(ValueError, match="order"):
        system.closed_ck(6)
    with pytest.raises(ValueError, match="constant coefficients"):
        noncons_system().closed_ck(1)


def _scalar_law(**forms):
    return systems.SystemDescriptor(
        name="scalar", m=1, initial_condition=lambda x: np.sin(x)[..., None], **forms
    )


def test_linearity_is_read_off_the_forms():
    # A law is linear with constant coefficients when its recorded forms are
    # affine in Q, its matrix rows hold no state and S(0) = 0; it is never
    # declared.
    assert linear_system().constant_coefficients
    assert scalar_advection_reaction().constant_coefficients
    for law in (leveque_yee(), noncons_system(), euler_ideal_gas()):
        assert not law.constant_coefficients
    a, beta = [[0.0, 1.3], [1.3, 0.0]], -0.7
    rows = systems.SystemDescriptor(
        name="rows", m=2, initial_condition=linear_system().initial_condition,
        matrix_rows=lambda q: a, source_terms=lambda q: [beta * q[0], beta * q[1]],
    )
    assert rows.constant_coefficients
    np.testing.assert_array_equal(rows.closed_ck(3), linear_ck_matrices(np.array(a), beta * np.eye(2), 3))
    # A row holding the state, even affinely, makes A depend on Q.
    assert not dataclasses.replace(rows, matrix_rows=lambda q: [[0.0, q[0]], [1.3, 0.0]]).constant_coefficients
    # An affine source with S(0) != 0 is not: the closed CK table has no offset.
    assert not _scalar_law(flux_terms=lambda q: [q[0]], source_terms=lambda q: [1.0 - q[0]]).constant_coefficients
    with pytest.raises(TypeError):
        _scalar_law(flux_terms=lambda q: [q[0]], constant_coefficients=True)


def test_linear_after_cancellation_counts_as_nonlinear():
    # q q - q q is linear only after cancellation: the law takes the Newton
    # predictor, conservatively, and is still solved as the advection law.
    advection = _scalar_law(flux_terms=lambda q: [q[0]], source_terms=lambda q: [-q[0]])
    cancel = _scalar_law(flux_terms=lambda q: [q[0] + (q[0] * q[0] - q[0] * q[0])],
                         source_terms=lambda q: [-q[0]])
    assert advection.constant_coefficients and not cancel.constant_coefficients
    cfg = RunConfig(order=3, t_out=0.05, boundary="periodic")
    want, got = (run(law, Grid(0.0, 1.0, 16), cfg) for law in (advection, cancel))
    assert want.max_sweeps == 0 and got.max_sweeps >= 1
    np.testing.assert_allclose(got.field.interior, want.field.interior, rtol=0, atol=1e-13)


def test_closed_ck_derived_once_per_run(monkeypatch):
    calls = []
    original = systems.linear_ck_matrices

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(systems, "linear_ck_matrices", counted)
    report = run(linear_system(), Grid(0.0, 1.0, 8), RunConfig(order=3, t_out=0.025))
    assert report.n_steps == 2
    assert calls == [5]


@pytest.mark.parametrize("factory", [scalar_advection_reaction, linear_system])
def test_constant_coefficient_matrices_derived_once(factory, monkeypatch):
    # A constant-coefficient law's A and dS/dQ are derived once, at Q = 0,
    # and read-only: the same values, bit for bit, that the complex step of
    # ``matrix`` and ``source_jacobian`` gives at any state.
    system = factory(beta=-3.0)
    states = _random_states(system, np.random.default_rng(10), 30).reshape(5, 6, -1)
    calls = []
    original = systems._terms_product
    monkeypatch.setattr(systems, "_terms_product", lambda *a: calls.append(1) or original(*a))
    for _ in range(3):
        a, b = system._constant_matrices
        assert not a.flags.writeable and not b.flags.writeable
    assert len(calls) == 2  # A and dS/dQ, once each
    want = system.matrix(states), system.source_jacobian(states)
    for got, ref in zip((a, b), want):
        np.testing.assert_array_equal(np.broadcast_to(got, ref.shape), ref)
        assert ref.flags.writeable


def _complex_step_terms(terms, q):
    """Jacobian of ``terms`` at real states q by ``complex_step_jacobian``."""
    def f(qc):
        values = terms([qc[..., i] for i in range(qc.shape[-1])])
        return np.stack(np.broadcast_arrays(*values), axis=-1)

    return systems.complex_step_jacobian(f, q)[1]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_real_state_jacobians_are_the_complex_step(factory):
    # At real states A (of a conservative law) and dS/dQ are one complex step
    # of the law's terms, bit for bit; the analytic path is for complex states.
    system = factory()
    states = _random_states(system, np.random.default_rng(11), 40)[:30].reshape(5, 6, -1)
    if system.flux_terms is not None:
        np.testing.assert_array_equal(
            system.matrix(states), _complex_step_terms(system.flux_terms, states)
        )
    if system.source_terms is not None:
        np.testing.assert_array_equal(
            system.source_jacobian(states), _complex_step_terms(system.source_terms, states)
        )


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_jacobians_are_analytic_at_complex_states(factory):
    # At Q + i h e_j the real parts are A(Q) and dS/dQ(Q), and the imaginary
    # parts over h are their derivatives in Q_j: central differences of the
    # real Jacobians agree.
    system = factory()
    states = _random_states(system, np.random.default_rng(12), 20)[:12]
    h, delta = 1e-20, 1e-6
    for form in (system.matrix, system.source_jacobian):
        for j in range(system.m):
            step = np.zeros(system.m)
            step[j] = 1.0
            stepped = form(states + 1j * h * step)
            assert np.iscomplexobj(stepped)
            np.testing.assert_allclose(stepped.real, form(states), rtol=1e-14, atol=1e-14)
            dq = delta * (1.0 + np.abs(states[:, j]))[:, None, None]
            fd = (form(states + dq[..., 0] * step) - form(states - dq[..., 0] * step)) / (2 * dq)
            scale = 1.0 + np.abs(fd).max()
            np.testing.assert_allclose(stepped.imag / h, fd, rtol=0, atol=1e-7 * scale)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_matrix_columns_are_the_unit_direction_products(factory):
    # One derivative routine: column j of A(Q) is A(Q) e_j, bit for bit, at
    # real states and at complex ones.
    system = factory()
    q = _random_states(system, np.random.default_rng(16), 40)[:30].reshape(5, 6, -1)
    for states in (q, q + 1j * 1e-20 * np.arange(1, system.m + 1)):
        mats = system.matrix(states)
        for j, unit in enumerate(np.eye(system.m)):
            column = system.matrix_product(states, unit)
            assert column.dtype == mats.dtype
            assert column.tobytes() == mats[..., j].tobytes(), (j, states.dtype)


def _applied(mats, v):
    """A v from the formed matrices: the reference for ``matrix_product``."""
    return np.einsum("...ab,...b->...a", mats, v)


# Laws whose A v is a sum of exact products or of the exact entries of A:
# their product is the formed matrix's, bit for bit.
_EXACT_PRODUCTS = [scalar_advection_reaction, leveque_yee, linear_system, noncons_system]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
@pytest.mark.parametrize("scale", [1e-30, 1e-10, 1.0, 1e10, 1e30])
def test_matrix_product_at_real_states_is_the_matrix_times_v(factory, scale):
    system = factory()
    rng = np.random.default_rng(13)
    q = _random_states(system, rng, 60)[:40]
    v = scale * np.abs(q).max(axis=-1, keepdims=True) * rng.standard_normal(q.shape)
    mats = system.matrix(q)
    got, want = system.matrix_product(q, v), _applied(mats, v)
    assert got.shape == q.shape and got.dtype == float
    if factory in _EXACT_PRODUCTS:
        np.testing.assert_array_equal(got, want)
    else:
        bound = _applied(np.abs(mats), np.abs(v))
        assert np.all(np.abs(got - want) <= 1e-14 * bound)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_matrix_product_passes_a_complex_step(factory):
    # At Q + i h e_j, and along a complex v, the product is A(Q + i h e_j) v:
    # its imaginary part over h is the derivative of A(Q) v in Q_j.
    system = factory()
    rng = np.random.default_rng(14)
    q = _random_states(system, rng, 30)[:20]
    h = 1e-20
    for j in range(system.m):
        step = np.zeros(system.m)
        step[j] = 1.0
        qc = q + 1j * h * step
        for v in (rng.standard_normal(q.shape), rng.standard_normal(q.shape) * (1 + 1j * h)):
            got, want = system.matrix_product(qc, v), _applied(system.matrix(qc), v)
            assert got.dtype == want.dtype  # real for a constant A and a real v
            if factory in (scalar_advection_reaction, leveque_yee, linear_system):
                np.testing.assert_array_equal(got, want)
            scale = _applied(np.abs(system.matrix(q)), np.abs(v))
            np.testing.assert_allclose(got.real, want.real, rtol=0, atol=1e-14 * scale.max())
            np.testing.assert_allclose(
                got.imag / h, want.imag / h, rtol=0, atol=1e-13 * np.abs(want.imag / h).max()
            )
    # Real states with a complex direction take the same series.
    v = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
    np.testing.assert_allclose(
        system.matrix_product(q, v), _applied(system.matrix(q), v), rtol=1e-14, atol=1e-14
    )


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_matrix_product_broadcasts_states_against_directions(factory):
    system = factory()
    rng = np.random.default_rng(15)
    q = _random_states(system, rng, 10)[:4].reshape(4, 1, -1)
    v = rng.standard_normal((1, 6, system.m))
    got = system.matrix_product(q, v)
    assert got.shape == (4, 6, system.m)
    # numpy's complex multiply may round by operand layout, so the complex
    # step of the Euler flux can differ in the last bit between batch shapes.
    atol = 0.0 if factory in _EXACT_PRODUCTS else 1e-15 * np.abs(got).max()
    for a, b in np.ndindex(4, 6):
        np.testing.assert_allclose(
            got[a, b], system.matrix_product(q[a, 0], v[0, b]), rtol=0, atol=atol
        )
    np.testing.assert_allclose(
        system.matrix_product(q[0, 0], v[0]), got[0], rtol=0, atol=atol
    )
