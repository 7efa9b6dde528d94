import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselab.cones import MembershipError, cayley, classify, make_structural, po_decompose, sample
from phaselab.linalg import (
    BranchCutError,
    EigenbasisError,
    RankError,
    ShapeError,
    expm,
    logm_principal,
    subspace_gap,
)
from phaselab.relations import (
    DegenerateCompositionError,
    NotAGraphError,
    a0_generator,
    compose,
    graph_of,
    graph_limit_gaps,
    is_Unn,
    is_symplectic_rel,
    ker_indef,
    limit_graph,
    make_Nb,
    potapov_inverse,
    potapov_matrix,
    potapov_product,
    potapov_relation,
    projection_derivative,
    relation_from_span,
)
from reference import herm_form, split_diss


def frame_of_columns(cols):
    cols = np.asarray(cols, dtype=complex).T
    q, _ = np.linalg.qr(cols)
    return q


def test_graph_of_trivial():
    g0 = graph_of(np.zeros((2, 2)))
    expected = frame_of_columns([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert subspace_gap(g0, expected) < 1e-14

    gid = graph_of(np.eye(2))
    diag = frame_of_columns([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert subspace_gap(gid, diag) < 1e-14


def test_graph_separates_matrices():
    rng = np.random.default_rng(0)
    for _ in range(10):
        T = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        T2 = T + 1e-3 * rng.normal(size=(2, 2))
        assert subspace_gap(graph_of(T), graph_of(T)) < 1e-14
        assert subspace_gap(graph_of(T), graph_of(T2)) > 1e-5


def test_compose_identity_and_order():
    rng = np.random.default_rng(1)
    for _ in range(10):
        Smat = expm(sample("sp_c", 1, 0.4, int(rng.integers(1e6))))
        Tmat = expm(sample("sp_c", 1, 0.4, int(rng.integers(1e6))))
        P = compose(graph_of(Smat), graph_of(Tmat))
        # the set-formula product extends matrix multiplication in reversed
        # order: graph(S) o graph(T) = graph(T S)
        assert subspace_gap(P, graph_of(Tmat @ Smat)) < 1e-12
        assert subspace_gap(compose(P, graph_of(np.eye(2))), P) < 1e-12


def test_compose_bruteforce_oracle():
    # brute force: for each basis input x, solve x + w in graph(S),
    # w + y in graph(T) directly
    Smat = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    Tmat = np.array([[0.0, 1.0], [-1.0, 0.3]], dtype=complex)
    cols = []
    for x in np.eye(2, dtype=complex):
        w = Smat @ x
        y = Tmat @ w
        cols.append(np.concatenate([x, y]))
    oracle = frame_of_columns(cols)
    P = compose(graph_of(Smat), graph_of(Tmat))
    assert subspace_gap(P, oracle) < 1e-13


def test_compose_degenerate_raises():
    # {0 (+) w} composed with graph(0) collapses to the zero subspace
    R = relation_from_span(np.eye(4, dtype=complex)[:, [2, 3]])
    with pytest.raises(DegenerateCompositionError) as err:
        compose(R, graph_of(np.zeros((2, 2))))
    assert err.value.dim == 0


def test_compose_dimension_mismatch():
    with pytest.raises(ShapeError):
        compose(graph_of(np.eye(2)), graph_of(np.eye(4)))


def test_ker_indef_invertible_graph():
    ker, ind = ker_indef(graph_of(np.diag([2.0, 0.5])))
    assert ker.shape[1] == 0 and ind.shape[1] == 0


def test_is_unn_and_symplectic():
    for i in range(10):
        g = sample("GammaU", 2, 0.7, i)
        assert is_Unn(graph_of(g))
    for i in range(10):
        g = sample("GammaSp_c", 2, 0.7, 100 + i)
        P = graph_of(g)
        assert is_Unn(P) and is_symplectic_rel(P)
    bad = graph_of(2.0 * np.eye(4))
    assert not is_Unn(bad)
    assert not is_symplectic_rel(bad)


def test_semigroup_closure():
    for i in range(20):
        P1 = graph_of(sample("GammaSp_c", 2, 0.6, 2 * i))
        P2 = graph_of(sample("GammaSp_c", 2, 0.6, 2 * i + 1))
        P = compose(P1, P2)
        assert is_Unn(P) and is_symplectic_rel(P)


def test_potapov_matrix_examples():
    r = potapov_matrix(np.eye(4))
    assert np.linalg.norm(r[:2, :2]) < 1e-14 and np.linalg.norm(r[2:, 2:]) < 1e-14
    assert np.linalg.norm(r[:2, 2:] - np.eye(2), 2) < 1e-14
    assert np.linalg.norm(r[2:, :2] - np.eye(2), 2) < 1e-14

    X = np.diag([1.0, -1.0])
    for t in (0.5, 1.0, 2.0):
        r = potapov_matrix(expm(t * X))
        target = np.array([[0, np.exp(-t)], [np.exp(-t), 0]])
        assert np.linalg.norm(r - target, 2) < 1e-12

    from phaselab.linalg import RankError

    with pytest.raises(RankError):
        potapov_matrix(np.diag([0.0, 1.0, 1.0, 1.0]))


def test_potapov_contraction_norm():
    for i in range(50):
        n = 1 + i % 2
        g = sample("GammaU", n, 0.8, i)
        assert np.linalg.norm(potapov_matrix(g), 2) <= 1.0 + 1e-10


def test_potapov_symplectic_block_relation():
    # for symplectic g the lower-left block is the transposed inverse of a
    for i in range(10):
        g = sample("GammaSp_c", 2, 0.6, i)
        r = potapov_matrix(g)
        a = g[:2, :2]
        gamma = r[2:, :2]
        assert np.linalg.norm(gamma - np.linalg.inv(a).T, 2) < 1e-9 * np.linalg.norm(gamma, 2)


def test_potapov_relation_agrees_with_matrix_route():
    for i in range(200):
        n = 1 + i % 2
        g = sample("GammaU", n, 0.7, 1000 + i)
        r1 = potapov_matrix(g)
        r2 = potapov_relation(graph_of(g))
        assert np.linalg.norm(r1 - r2, 2) < 1e-10


def test_potapov_bijection_roundtrip():
    for i in range(20):
        P = graph_of(sample("GammaU", 2, 0.7, i))
        r = potapov_relation(P)
        back = potapov_inverse(r)
        assert subspace_gap(P, back) < 1e-10


def test_potapov_product_identity_case():
    rng = np.random.default_rng(5)
    r1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    id_transform = potapov_relation(graph_of(np.eye(4)))
    out = potapov_product(r1, id_transform)
    assert np.linalg.norm(out - r1, 2) < 1e-12


def test_potapov_product_vs_composition_and_associativity():
    for i in range(30):
        P1 = graph_of(sample("GammaU", 2, 0.6, 3 * i))
        P2 = graph_of(sample("GammaU", 2, 0.6, 3 * i + 1))
        lhs = potapov_relation(compose(P1, P2))
        rhs = potapov_product(potapov_relation(P1), potapov_relation(P2))
        assert np.max(np.abs(lhs - rhs)) < 1e-9
    for i in range(10):
        rs = [potapov_relation(graph_of(sample("GammaU", 2, 0.5, 7 * i + k))) for k in range(3)]
        left = potapov_product(potapov_product(rs[0], rs[1]), rs[2])
        right = potapov_product(rs[0], potapov_product(rs[1], rs[2]))
        assert np.max(np.abs(left - right)) < 1e-8


def test_potapov_product_continuity():
    P1 = graph_of(sample("GammaU", 2, 0.5, 42))
    P2 = graph_of(sample("GammaU", 2, 0.5, 43))
    r1, r2 = potapov_relation(P1), potapov_relation(P2)
    base = potapov_product(r1, r2)
    bumped = potapov_product(r1 + 1e-8, r2)
    assert np.max(np.abs(bumped - base)) < 1e-5


def test_potapov_relation_and_product_guards():
    # span{e_- (+) 0, 0 (+) e_+}: Pi moves both columns into the second summand
    with pytest.raises(NotAGraphError):
        potapov_relation(relation_from_span([[1, 0], [0, 0], [0, 0], [0, 1]]))
    from phaselab.linalg import RankError

    # delta = 1 and phi = 1, so 1 - phi delta = 0
    with pytest.raises(RankError, match="1 - phi delta"):
        potapov_product(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))


def test_potapov_transforms_check_their_input():
    # a square 2n x 2n finite matrix, as graph_of and potapov_matrix ask
    r = potapov_relation(graph_of(sample("GammaU", 1, 0.5, 0)))
    for bad in (np.zeros((3, 3)), np.zeros((4, 2))):
        with pytest.raises(ShapeError, match="square 2n x 2n"):
            potapov_inverse(bad)
        with pytest.raises(ShapeError, match="square 2n x 2n"):
            potapov_product(bad, bad)
    with pytest.raises(ShapeError, match="block sizes differ"):
        potapov_product(r, np.eye(4))
    nan = np.full((2, 2), np.nan)
    for call in (lambda: potapov_inverse(nan), lambda: potapov_product(r, nan), lambda: potapov_product(nan, r)):
        with pytest.raises(ValueError, match="non-finite"):
            call()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(0.1, 1.0), st.integers(0, 2**31 - 2))
def test_potapov_product_formula_and_inverse_property(n, scale, seed):
    P1 = graph_of(sample("GammaU", n, scale, seed))
    P2 = graph_of(sample("GammaU", n, scale, seed + 1))
    r1, r2 = potapov_relation(P1), potapov_relation(P2)
    # the product formula at the potapov runner's tolerance
    assert np.max(np.abs(potapov_relation(compose(P1, P2)) - potapov_product(r1, r2))) < 1e-9
    # potapov_inverse scatters the rows back where potapov_relation took them
    for r in (r1, r2):
        assert np.max(np.abs(potapov_relation(potapov_inverse(r)) - r)) < 1e-12


def test_make_Nb():
    Nb = make_Nb(1)
    assert np.allclose(np.diag(Nb), [0, 1, 0, -1])
    Nb2 = Nb @ Nb
    assert np.allclose(np.diag(Nb2), [0, 1, 0, 1])
    assert np.linalg.norm(Nb2 @ Nb2 - Nb2, 2) < 1e-15
    with pytest.raises(ValueError):
        make_Nb(0)


def test_limit_graph_zero_generator():
    # A = 0: the limit is spanned by e4(+)0, e1(+)e1, e3(+)e3, 0(+)e2
    P = limit_graph(np.zeros((4, 4)))
    E = np.eye(4, dtype=complex)
    cols = [
        np.concatenate([E[:, 3], np.zeros(4)]),
        np.concatenate([E[:, 0], E[:, 0]]),
        np.concatenate([E[:, 2], E[:, 2]]),
        np.concatenate([np.zeros(4), E[:, 1]]),
    ]
    assert subspace_gap(P, frame_of_columns(cols)) < 1e-14


def test_limit_graph_structure_and_ker_indef():
    E = np.eye(4, dtype=complex)
    for i in range(10):
        A = sample("sp_c", 2, 1.0, i)
        P = limit_graph(A)
        assert is_Unn(P)
        assert is_symplectic_rel(P)
        ker, ind = ker_indef(P)
        # ker P = V^(-1) (fourth block), indef P = V^(1) (second block)
        assert subspace_gap(ker, E[:, [3]]) < 1e-12
        assert subspace_gap(ind, E[:, [1]]) < 1e-12


def test_limit_graph_convergence_with_rate():
    # gap to the limit decays like ||A||/nu for generic generators
    A = sample("sp_c", 2, 0.8, 3)
    P, (g4, g8, g16) = graph_limit_gaps(A, [4.0, 8.0, 16.0])
    assert np.array_equal(P, limit_graph(A))
    assert g8 < g4 and g16 < g8
    assert 1.6 < g4 / g8 < 2.4 and 1.6 < g8 / g16 < 2.4
    # the gaps at each nu are those of separate calls
    assert graph_limit_gaps(A, [8.0])[1] == [g8]
    # block-preserving generators converge exponentially instead
    Adiag = np.diag([0.3j, 0.7j, -0.3j, -0.7j])
    assert graph_limit_gaps(Adiag, [16.0])[1][0] < 1e-6


def test_limit_graph_middle_block_consistency():
    # over V^(0) the limit relation is the graph of the compressed flow
    A = sample("sp_c", 2, 1.0, 9)
    P = limit_graph(A)
    eA0 = expm(a0_generator(A))
    for j in (0, 2):
        v = np.zeros(4, dtype=complex)
        v[j] = 1.0
        vec = np.concatenate([v, eA0 @ v])
        vec /= np.linalg.norm(vec)
        proj = P @ (P.conj().T @ vec)
        assert np.linalg.norm(proj - vec) < 1e-12


def test_a0_generator_idempotent_compression():
    A = sample("sp_c", 2, 1.0, 4)
    A0 = a0_generator(A)
    assert np.linalg.norm(a0_generator(A0) - A0, 2) < 1e-14
    assert np.linalg.norm(a0_generator(np.zeros((4, 4)))) == 0


def test_projection_derivative_closed_form():
    assert np.linalg.norm(projection_derivative(np.zeros((4, 4)))) == 0
    # diagonal A commutes with the eigenprojections: derivative vanishes
    D = np.diag([0.3, -1.2, 0.7, 2.0]).astype(complex)
    assert np.linalg.norm(projection_derivative(D), 2) < 1e-14


def test_projection_derivative_fd_oracle():
    rng = np.random.default_rng(8)
    Nb = make_Nb(1)
    eps = 1e-5

    def cluster_projector(M):
        w, V = np.linalg.eig(M)
        sel = np.abs(w) < 0.5
        Vi = np.linalg.inv(V)
        return V[:, sel] @ Vi[sel, :]

    for _ in range(10):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A /= np.linalg.norm(A, 2)
        fd = (cluster_projector(eps * A - Nb) - cluster_projector(-eps * A - Nb)) / (2 * eps)
        cf = projection_derivative(A)
        assert np.linalg.norm(fd - cf, 2) / np.linalg.norm(cf, 2) < 1e-3


def test_relation_from_span_validates():
    with pytest.raises(RankError):
        relation_from_span(np.eye(4, dtype=complex)[:, [0]])


def test_rank_deficiency_raises():
    # rank-1 4 x 2 inputs: exactly, and [I; T] numerically (singular
    # values about 1e9 and 1, a ratio below RANK_TOL)
    with pytest.raises(RankError):
        relation_from_span(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, 3.0]]))
    with pytest.raises(RankError):
        graph_of(np.diag([1e9, 0.0]))


_SIX = np.eye(6, 2, dtype=complex)  # a frame whose row count is not 4n


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify(np.zeros((3, 3)), "U"),
        lambda: classify(np.zeros((2, 4)), "U"),
        lambda: cayley(np.zeros((3, 3))),
        lambda: cayley(np.zeros((4, 2))),
        lambda: split_diss(np.zeros((3, 3))),
        lambda: split_diss(np.zeros((2, 4))),
        lambda: herm_form(np.zeros(2), np.zeros(4)),
        lambda: herm_form(np.zeros(3), np.zeros(3)),
        lambda: po_decompose(np.eye(4), make_structural(1)),
        lambda: a0_generator(np.zeros((6, 6))),
        lambda: a0_generator(np.zeros((4, 8))),
        lambda: projection_derivative(np.zeros((2, 2))),
        lambda: projection_derivative(np.zeros((4, 8))),
        lambda: limit_graph(np.zeros((6, 6))),
        lambda: graph_limit_gaps(np.zeros((2, 2)), [4.0]),
        lambda: compose(_SIX, _SIX),
        lambda: compose(graph_of(np.eye(2)), _SIX),
        lambda: ker_indef(_SIX),
        lambda: is_Unn(_SIX),
        lambda: is_symplectic_rel(_SIX),
        lambda: potapov_relation(_SIX),
        lambda: relation_from_span(_SIX),
    ],
    ids=[
        "classify_odd", "classify_non_square", "cayley_odd", "cayley_non_square",
        "split_diss_odd", "split_diss_non_square", "herm_form_unequal", "herm_form_odd",
        "po_decompose_other_S", "a0_generator_not_4m", "a0_generator_non_square",
        "projection_derivative_not_4m", "projection_derivative_non_square", "limit_graph_not_4m",
        "graph_limit_gaps_not_4m", "compose_6_rows", "compose_mixed_rows", "ker_indef_6_rows",
        "is_Unn_6_rows", "is_symplectic_rel_6_rows", "potapov_relation_6_rows",
        "relation_from_span_6_rows",
    ],
)
def test_sizes_come_from_shapes(call):
    # every function that reads its block size from its input rejects a
    # shape that has none with ShapeError, not a numpy error
    with pytest.raises(ShapeError):
        call()


def test_stacked_graphs_and_transforms_equal_the_loop():
    g = sample("GammaU", 2, 0.6, range(8))
    for gs in (g, g[:1]):
        P = graph_of(gs)
        assert np.array_equal(P, np.stack([graph_of(x) for x in gs]))
        r = potapov_relation(P)
        assert np.array_equal(r, np.stack([potapov_relation(x) for x in P]))
    r = potapov_relation(graph_of(g))
    assert np.array_equal(potapov_product(r[:4], r[4:]), np.stack([potapov_product(a, b) for a, b in zip(r[:4], r[4:])]))


def test_graph_limit_sweep_equals_the_loop_over_nu():
    A = sample("sp_c", 2, 1.0, 4)
    nus = [4.0, 5.5, 9.0, 16.0]
    P, gaps = graph_limit_gaps(A, nus)
    Nb = make_Nb(1)
    assert gaps == [subspace_gap(graph_of(expm(A + nu * Nb)), P) for nu in nus]


def test_a_bad_member_of_a_stack_raises_what_it_raises_alone():
    g = sample("GammaU", 1, 0.6, range(4))
    # [I; T] with T = 1e10 times a rank-one matrix fails the rank test of
    # its frame: its singular values are about 1e10 and 1
    huge = g.copy()
    huge[2] = 1e10
    with pytest.raises(RankError, match="span has dimension 1, expected 2") as alone:
        graph_of(huge[2])
    with pytest.raises(RankError) as stacked:
        graph_of(huge)
    assert str(stacked.value) == str(alone.value)
    # graph(0) = {v (+) 0} is a relation, but its Potapov permutation is not a graph
    zero = g.copy()
    zero[1] = 0
    with pytest.raises(NotAGraphError):
        potapov_relation(graph_of(zero[1]))
    with pytest.raises(NotAGraphError):
        potapov_relation(graph_of(zero))
    # po_decompose and its logarithm on a stack with one bad member, or two:
    # the first member that a loop refuses decides the error, and within it
    # the branch cut comes before the eigenbasis certificate
    S = make_structural(1)
    outside = sample("GammaSp_c", 1, 0.5, range(4))
    outside[2] = 2.0 * np.eye(2)
    with pytest.raises(MembershipError) as alone:
        po_decompose(outside[2], S)
    with pytest.raises(MembershipError) as stacked:
        po_decompose(outside, S)
    assert str(stacked.value) == str(alone.value)
    good = expm(sample("sp_c", 1, 0.5, range(4)))  # spectral radius 0.5 keeps e^A off the cut
    jordan_cut = np.array([[-1.0, 1.0], [0.0, -1.0]])  # defective and on the cut
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])  # defective only
    cut = good.copy()
    cut[1], cut[3] = jordan_cut, jordan
    with pytest.raises(BranchCutError) as alone:
        logm_principal(jordan_cut)
    with pytest.raises(BranchCutError) as stacked:
        logm_principal(cut)
    assert stacked.value.eigenvalue == alone.value.eigenvalue
    defective = good.copy()
    defective[1], defective[2] = jordan, np.diag([-1.0, 2.0])
    with pytest.raises(EigenbasisError) as alone:
        logm_principal(jordan)
    with pytest.raises(EigenbasisError) as stacked:
        logm_principal(defective)
    assert stacked.value.cond == alone.value.cond
