"""Closed-form product tables of the bosonization and the graded model.

Both are built by the rewrite engine.  These n^2 loops write each product
of two monomials out directly, so they stay independent oracles for the
engine's tables.
"""

from qlsmodcat.cyclo import zeta
from qlsmodcat.hopf import monomial_labels


def bosonization_mult(d) -> dict:
    """x^r g times x^s h = chi^s(g) q-commutation scalars x^(r+s) gh, zero
    when an exponent reaches its height."""
    group, theta, N = d.group, d.theta, d.N
    L = group.exponent
    labels = monomial_labels(N, group)
    idx = {lab: i for i, lab in enumerate(labels)}
    qexp = [[d.chi[j].eval_exponent(d.g[k]) for j in range(theta)]
            for k in range(theta)]
    mult: dict = {}
    for i1, (r, ge) in enumerate(labels):
        g = group.element(ge)
        chig = [d.chi[a].eval_exponent(g) for a in range(theta)]
        for i2, (s, he) in enumerate(labels):
            if any(r[a] + s[a] >= N[a] for a in range(theta)):
                continue
            e = sum(s[a] * chig[a] for a in range(theta))
            for j in range(theta):
                for k in range(j + 1, theta):
                    e += r[k] * s[j] * qexp[k][j]
            t = tuple(r[a] + s[a] for a in range(theta))
            gh = g * group.element(he)
            mult[(i1, i2)] = {idx[(t, gh.exps)]: zeta(L, e).raw()}
    return mult


def graded_model_mult(mcd) -> dict:
    """w^r e_f times w^s e_g = psi(f, g) chi_F^s(f) Q-scalars w^(r+s) e_fg,
    zero when an exponent reaches its height: A(D) with xi = alpha = 0."""
    labels = monomial_labels(mcd.heights, mcd.F)
    idx = {lab: i for i, lab in enumerate(labels)}
    m, heights, group, L = mcd.n_letters, mcd.heights, mcd.datum.group, mcd.L
    mult: dict = {}
    for i1, (r, fe) in enumerate(labels):
        f = group.element(fe)
        for i2, (s, ge) in enumerate(labels):
            if any(r[a] + s[a] >= heights[a] for a in range(m)):
                continue
            g = group.element(ge)
            coef = mcd.psi_norm(f, g).rebase(L)
            for a in range(m):
                coef = coef * mcd.chiF[a][f] ** s[a]
            for b in range(m):
                for a in range(b + 1, m):
                    coef = coef * mcd.Q[a][b] ** (r[a] * s[b])
            t = tuple(r[a] + s[a] for a in range(m))
            mult[(i1, i2)] = {idx[(t, (f * g).exps)]: coef.raw()}
    return mult
