"""The covering forms through the Smith normal form over Q[z, z^-1], kept
as an oracle for the Krylov construction in `wittkit.seifert`.

The pairing is the pencil's adjugate over its determinant, rewritten into
the Smith generators: the kept columns of U^-1."""

from fractions import Fraction

from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix, _dot, _faddeev_leverrier
from wittkit.exact.ratfunc import RatFunc
from wittkit.exact.snf import smith_normal_form
from wittkit.laurent_forms import LaurentLinkingForm, LaurentModule, _monic_ordinary


def pencil_adjugate(a: Matrix, x, y) -> tuple[Matrix, object]:
    """(adj(x*I - y*A), det(x*I - y*A)) for square A and ring elements x, y
    (LaurentPoly in practice).  Homogenizes the Faddeev-LeVerrier expansion
    of adj(t*I - A) and det(t*I - A), so nothing is divided and the pencil
    is never inverted: (x*I - y*A)^-1 = adj / det wherever det != 0."""
    if not a.is_square():
        raise ValueError("pencil of non-square matrix")
    coeffs, ms = _faddeev_leverrier(a)
    n = a.nrows
    xp = [x ** k for k in range(n + 1)]
    yp = [y ** k for k in range(n + 1)]
    det = coeffs[0] * yp[n]
    for k in range(1, n + 1):
        det = det + coeffs[k] * xp[k] * yp[n - k]
    weights = [xp[n - 1 - k] * yp[k] for k in range(n)]
    adj = Matrix([[_dot([m.rows[i][j] for m in ms], weights)
                   for j in range(n)] for i in range(n)])
    return adj, det


def _snf_covering(pres, mode, num, den, epsilon):
    res = smith_normal_form(pres, ring="Q[z,z^-1]")
    kept = [i for i, d in enumerate(res.divisors) if not d.is_unit()]
    module = LaurentModule(
        pres, [_monic_ordinary(res.divisors[i]) for i in kept], None, mode)
    # the generators g_i are the kept columns of U^-1
    g = Matrix([[row[i] for i in kept] for row in res.U_inv.rows])
    changed = g.transpose() * num * g.bar()
    pairing = [[RatFunc.make(x, den).frac_class() for x in row]
               for row in changed.rows]
    return LaurentLinkingForm(module, pairing, epsilon)


def snf_covering_seifert(f):
    e = f.e
    n = f.rank
    pres = Matrix([[LaurentPoly({0: (1 if i == j else 0) - e[i, j],
                                 1: e[i, j]})
                    for j in range(n)] for i in range(n)])
    scale = LaurentPoly({-1: Fraction(1), 0: Fraction(-1)})
    adj, det = pencil_adjugate(e, LaurentPoly.one(), -scale)
    return _snf_covering(pres, "P", f.theta * adj * scale, det, -f.epsilon)


def snf_covering_autometric(f):
    n = f.rank
    pres = Matrix([[LaurentPoly({0: -f.h[i, j], 1: Fraction(1 if i == j else 0)})
                    for j in range(n)] for i in range(n)])
    adj, det = pencil_adjugate(f.h, LaurentPoly.z(-1), LaurentPoly.one())
    scale = LaurentPoly({-1: Fraction(-1)})
    return _snf_covering(pres, "Q", f.theta * adj * scale, det, -f.epsilon)
