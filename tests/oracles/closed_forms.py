"""High-precision reference values for the frozen constants in the test suite.

Run manually:

    python tests/oracles/closed_forms.py

Everything here is computed at 50 significant digits with mpmath (sympy for
the exact partial-fraction decompositions), independently of the package
code: tails come from closed forms or from oscillatory quadrature of the
characteristic function, never from the package's own partial-fraction
routines.  Test files copy the printed numbers as literals with a comment
pointing back at this script.
"""

import mpmath as mp
import sympy

mp.mp.dps = 50

OUT = []


def emit(name, value):
    OUT.append((name, mp.nstr(mp.mpf(value), 21)))


# ---------------------------------------------------------------------------
# weighted exponential sums (distinct scales): tail = sum_j B_j e^{-t/a_j},
# B_j = prod_{k!=j} a_j/(a_j-a_k).  For (2,1): B = (2, -1).
# ---------------------------------------------------------------------------

e = mp.e

emit("hypoexp21_tail_at_2", 2 * mp.exp(-1) - mp.exp(-2))
emit("hypoexp21_tail_at_3", 2 * mp.exp(-mp.mpf(3) / 2) - mp.exp(-3))  # mean
emit("hypoexp21_tail_at_6", 2 * mp.exp(-3) - mp.exp(-6))
emit("erlang2_tail_at_2", 3 * mp.exp(-2))  # weights (1,1): (1+t)e^{-t}

# confluent (2,1,1): MGF (1-2s)^-1 (1-s)^-2, exact partial fractions via sympy
s = sympy.symbols("s")
F = 1 / ((1 - 2 * s) * (1 - s) ** 2)
emit_parts = sympy.apart(F, s)
# apart returns 4/(1-2s) - 2/(1-s) - 1/(1-s)^2 -> tail 4e^{-t/2} - 2e^{-t} - (1+t)e^{-t}
print("# sympy apart (2,1,1):", emit_parts)
t = mp.mpf(4)
emit("hypoexp211_tail_at_4", 4 * mp.exp(-2) - 2 * mp.exp(-4) - (1 + 4) * mp.exp(-4))


# weights (1, 1.000008), a relative gap of 8e-6: partial fractions at 60
# digits, from the float value of the second weight
def near_pair_tail(t, two_sided):
    with mp.workdps(60):
        a1, a2 = mp.mpf(1.0), mp.mpf(1.000008)
        if two_sided:
            c1, c2 = a1**2 / (a1**2 - a2**2) / 2, a2**2 / (a2**2 - a1**2) / 2
        else:
            c1, c2 = a1 / (a1 - a2), a2 / (a2 - a1)
        return c1 * mp.exp(-t / a1) + c2 * mp.exp(-t / a2)


for t_near in (200, 600):
    emit(f"hypoexp_near_pair_tail_at_{t_near}", near_pair_tail(t_near, False))
    emit(f"laplace_near_pair_tail_at_{t_near}", near_pair_tail(t_near, True))

# gamma shape 2, weights (2,1): MGF (1-2s)^-2 (1-s)^-2
F2 = 1 / ((1 - 2 * s) ** 2 * (1 - s) ** 2)
print("# sympy apart gamma2 (2,1):", sympy.apart(F2, s))
# printout: 8/(2s-1) + 4/(2s-1)^2 - 4/(s-1) + 1/(s-1)^2, i.e. in the
# (1-b s)^-l basis: -8/(1-2s) + 4/(1-2s)^2 + 4/(1-s) + 1/(1-s)^2
# tail(t) = -8 Q(1,t/2) + 4 Q(2,t/2) + 4 Q(1,t) + Q(2,t)   (sum of coefs = 1)
# with Q(k,x) the regularized upper incomplete gamma.


def q_upper(shape, x):
    return mp.gammainc(shape, a=x, regularized=True)


def gamma2_21_tail(t):
    t = mp.mpf(t)
    return (
        -8 * q_upper(1, t / 2)
        + 4 * q_upper(2, t / 2)
        + 4 * q_upper(1, t)
        + q_upper(2, t)
    )


emit("gamma2_w21_tail_at_12", gamma2_21_tail(12))  # t = 2*ES, ES = 6
emit("gamma2_w21_tail_at_6", gamma2_21_tail(6))  # at the mean

# single gamma summands (closed forms for the CF-inversion cross-checks)
emit("gamma2_w11_tail_at_4", q_upper(4, 4))  # shape 2, weights (1,1) => Gamma(4)
emit("gamma05_w3_tail_at_6", mp.erfc(mp.sqrt(2)))  # Q(1/2, x) = erfc(sqrt(x)), x=2
emit("q_2_1", q_upper(2, 1))
emit("q_05_2", q_upper(mp.mpf(1) / 2, 2))
emit("q_30_25", q_upper(30, 25))
emit("log_q_1_800", -mp.mpf(800))  # Q(1,x) = e^{-x}
emit("log_q_3_200", mp.log(q_upper(3, 200)))

# ---------------------------------------------------------------------------
# weighted Laplace sums (distinct scales): tail(t>=0) = sum_j (A_j/2) e^{-t/a_j},
# A_j = prod_{k!=j} a_j^2/(a_j^2-a_k^2).  For (2,1): A = (4/3, -1/3).
# ---------------------------------------------------------------------------

sigma21 = mp.sqrt(10)  # sqrt(2*(4+1))
emit(
    "laplace21_tail_at_2sigma",
    mp.mpf(2) / 3 * mp.exp(-sigma21) - mp.mpf(1) / 6 * mp.exp(-2 * sigma21),
)
emit(
    "laplace21_tail_at_15sigma",
    mp.mpf(2) / 3 * mp.exp(-mp.mpf(3) / 4 * sigma21)
    - mp.mpf(1) / 6 * mp.exp(-mp.mpf(3) / 2 * sigma21),
)
emit("laplace11_tail_at_3", mp.mpf(1) / 4 * (2 + 3) * mp.exp(-3))  # (1/4)(2+t)e^{-t}

# confluent Laplace (2,1,1): independent check via oscillatory CF quadrature
# P(S>t) = 1/2 - (1/pi) int_0^inf Re(phi(s)) sin(st)/s ds  (phi real, even)


def laplace_cf_tail(weights, t):
    t = mp.mpf(t)

    def f(u):
        phi = mp.mpf(1)
        for a in weights:
            phi /= 1 + a * a * u * u
        return phi * mp.sin(u * t) / u

    integral = mp.quadosc(f, [0, mp.inf], period=2 * mp.pi / t)
    return mp.mpf(1) / 2 - integral / mp.pi


sigma211 = mp.sqrt(12)
emit("laplace211_tail_at_15sigma", laplace_cf_tail([2, 1, 1], mp.mpf(3) / 2 * sigma211))
emit("laplace21_tail_at_2sigma_cf", laplace_cf_tail([2, 1], 2 * sigma21))
emit("laplace111_tail_at_3", laplace_cf_tail([1, 1, 1], 3))  # analytic: 2 e^{-3}
emit(
    "laplace21_tail_at_1",
    mp.mpf(2) / 3 * mp.exp(-mp.mpf(1) / 2) - mp.mpf(1) / 6 * mp.exp(-1),
)
# scales 3e-5 apart: hopeless for float64 partial fractions (coefficients
# ~6e12 with catastrophic cancellation) but trivial at 50 digits
ILL = [mp.mpf(1), 1 + mp.mpf(3) / 10**5, 1 + mp.mpf(6) / 10**5, 1 + mp.mpf(9) / 10**5]


def hypoexp_tail_exact(weights, t):
    total = mp.mpf(0)
    for j, aj in enumerate(weights):
        bj = mp.mpf(1)
        for k, ak in enumerate(weights):
            if k != j:
                bj *= aj / (aj - ak)
        total += bj * mp.exp(-mp.mpf(t) / aj)
    return total


def laplace_tail_exact(weights, t):
    total = mp.mpf(0)
    for j, aj in enumerate(weights):
        coef = mp.mpf(1)
        for k, ak in enumerate(weights):
            if k != j:
                coef *= aj * aj / (aj * aj - ak * ak)
        total += coef / 2 * mp.exp(-mp.mpf(t) / aj)
    return total


emit("hypoexp_ill_tail_at_5", hypoexp_tail_exact(ILL, 5))
emit("laplace_ill_tail_at_3", laplace_tail_exact(ILL, 3))

# absolute moments E|S|^p = sum_j A_j a_j^p Gamma(p+1) (distinct scales)
emit("laplace21_absmoment_p3", mp.mpf(62))  # (4/3*8 - 1/3*1)*6 = 62
emit(
    "laplace21_absmoment_p25",
    (mp.mpf(4) / 3 * mp.power(2, mp.mpf(5) / 2) - mp.mpf(1) / 3) * mp.gamma(mp.mpf(7) / 2),
)
emit("laplace21_absmoment_p2", mp.mpf(10))  # = Var = 2*(4+1)

# ---------------------------------------------------------------------------
# h(u) = sqrt(1+u^2) - 1 - log((1+sqrt(1+u^2))/2) and friends
# ---------------------------------------------------------------------------


def h(u):
    u = mp.mpf(u)
    r = mp.sqrt(1 + u * u)
    return r - 1 - mp.log((1 + r) / 2)


emit("h_at_sqrt3", h(mp.sqrt(3)))  # = 1 - log(3/2)
emit("h_at_05", h(mp.mpf(1) / 2))
emit("h_at_2", h(2))
emit("h_at_8_over_sqrt10", h(8 / mp.sqrt(10)))
emit("h_at_1em4", h(mp.mpf("1e-4")))
emit("h_at_3", h(3))
emit("theta_star_at_3", (mp.sqrt(10) - 1) / 3)  # argmax of theta*3 + log(1-theta^2)

# ---------------------------------------------------------------------------
# Legendre/rate-function values
# ---------------------------------------------------------------------------

emit("rate_exp_at_2", 2 - 1 - mp.log(2))
emit("rate_gamma2_at_4", 4 - 2 - 2 * mp.log(2))  # absolute argument s=4, shape 2
emit("rate_laplace_at_3", h(3))  # numeric sup equals h(t)

# ---------------------------------------------------------------------------
# bound fixed points, weights (2,1)
# ---------------------------------------------------------------------------

alpha_exp = mp.mpf(3) / 2
emit("janson_lower_t2", mp.exp(-alpha_exp) / (2 * e * alpha_exp))
emit("janson_upper_t2", mp.exp(-alpha_exp * (1 - mp.log(2))) / 2)
emit("generic_upper_exp_t2", mp.exp(-alpha_exp * (1 - mp.log(2))))
emit("generic_upper_gamma2_w11_t2", mp.exp(-2 * (2 - 2 * mp.log(2))))

alpha_sym = mp.sqrt(10) / 2
emit("laplace_upper_t2", mp.exp(-(alpha_sym ** 2) / 2 * h(4 / alpha_sym)))
emit(
    "laplace_lower_t2",
    mp.exp(-alpha_sym * 2) / (57 * mp.sqrt(alpha_sym * 2)),
)

emit("pz_c9", 1 / (9 * mp.cbrt(16)))
emit("pz_c3", 1 / (3 * mp.cbrt(16)))
emit("pz_gamma2", 1 / (3 * mp.cbrt(16) * (1 + mp.mpf(2) / 2)))
emit("r_gamma05_v1", mp.exp(-1) / (2 * mp.sqrt(mp.pi)))

p_ge_mean_21 = 2 * mp.exp(-mp.mpf(3) / 2) - mp.exp(-3)
emit("p_ge_mean_exp21", p_ge_mean_21)
emit("s_ineq_t2_exp21", p_ge_mean_21 ** 2)

# moment bound constants
c_paper = mp.sqrt(2 * e) / (mp.sqrt(2 * e) + 1)
c_proof = mp.sqrt(2 / e) / (mp.sqrt(2 * e) + 1)
emit("moment_c_paper", c_paper)
emit("moment_c_proof", c_proof)
base_p3 = 3 * 2 + mp.sqrt(3) * mp.sqrt(5)  # p*max + sqrt(p)*l2 for (2,1), p=3
emit("moment_lower_p3_w21_proof", c_proof * base_p3)
emit("moment_upper_p3_w21", 4 * mp.sqrt(2) * base_p3)
emit("moment_exact_p3_w21", mp.power(62, mp.mpf(1) / 3))
emit("moment_lower_p2_n1_paper", c_paper * (2 + mp.sqrt(2)))  # > sqrt(2): counterexample

if __name__ == "__main__":
    for name, val in OUT:
        print(f"{name} = {val}")
