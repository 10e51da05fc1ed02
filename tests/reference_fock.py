"""Slow reference routes kept as differential oracles for the Fock oracle.

`colored_traces` is the depth-first walk over the 24 oscillator colours that
the library's brute-force oracle used before it grouped each colour's states
into (units, particle count) tables and convolved them: it visits every
rank-24 basis state one by one.  One change lets a single walk serve several
norms: a leaf counts states by (oscillator 0's state, units, particle count),
and oscillator 0's diagonal entry multiplies that count after the walk
instead of riding along as the amplitude.  `trace_A` sums the
single-oscillator diagonal entries state by state.  Both take their diagonal
entries from `fock._diag` and their states from `fock._partitions`: what
they check is how the library combines those entries, not the operator
algebra itself.

`closed_trace` is the product construction the closed forms used before
they became one exponential: the exponential of the zero mode's argument
times one factor (1 - x q^m)^{-rank} per oscillator mode m.
"""
from fractions import Fraction
from math import comb

from moontrace.fock import RANK, _diag, _partitions
from moontrace.qseries import MarkerPoly, MarkerSeries


def _series(acc: dict, mode_of_unit, order) -> MarkerSeries:
    terms: dict = {}
    for (used, count), amp in acc.items():
        if amp:
            e = mode_of_unit(used)
            terms[e] = terms.get(e, MarkerPoly(())) + MarkerPoly.x_power(count, amp)
    return MarkerSeries.from_terms(terms.items(), order)


def trace_A(L: int, max_grade: int) -> MarkerSeries:
    """Single-oscillator trace, one diagonal entry per partition state."""
    acc: dict = {}
    parts = list(range(max_grade, 0, -1))
    for g in range(max_grade + 1):
        for p in _partitions(g, parts):
            acc[g, len(p)] = acc.get((g, len(p)), Fraction(0)) + _diag(p, L)
    return _series(acc, Fraction, max_grade + 1)


def colored_traces(norms, units: int, unit_values, mode_of_unit, order) -> dict:
    """Full 24-oscillator enumeration for each norm; the insertion acts on oscillator 0.

    `units` bounds the total grade in integer units, `unit_values` lists the
    unit sizes single oscillator modes may take, and `mode_of_unit(s)` maps a
    unit count to the q-exponent it carries.  States are walked one by one.
    """
    all_parts = {
        s: _partitions(s, [u for u in range(units, 0, -1) if u in unit_values])
        for s in range(units + 1)
    }
    counts: dict = {}

    def walk(color, budget, used, count, first):
        if color == RANK or budget == 0:
            # budget 0: every remaining oscillator is forced into its ground state
            key = (first, used, count)
            counts[key] = counts.get(key, 0) + 1
            return
        for s in range(budget + 1):
            for p in all_parts[s]:
                walk(color + 1, budget - s, used + s, count + len(p),
                     p if color == 0 else first)

    walk(0, units, 0, 0, ())
    out = {}
    for L in norms:
        diag = {
            p: _diag(tuple(mode_of_unit(u) for u in p), L)
            for states in all_parts.values() for p in states
        }
        acc: dict = {}
        for (first, used, count), mult in counts.items():
            acc[used, count] = acc.get((used, count), Fraction(0)) + diag[first] * mult
        out[L] = _series(acc, mode_of_unit, order)
    return out


def traces_M1(norms, max_grade: int) -> dict:
    values = set(range(1, max_grade + 1))
    return colored_traces(norms, max_grade, values, Fraction, Fraction(max_grade + 1))


def twisted_traces(norms, max_units: int) -> dict:
    values = {u for u in range(1, max_units + 1) if u % 2}
    raw = colored_traces(
        norms, max_units, values, lambda u: Fraction(u, 2), Fraction(max_units + 1, 2)
    )
    return {L: g._shift(Fraction(3, 2)) for L, g in raw.items()}


def closed_trace(L: int, order, rank: int, half: bool) -> MarkerSeries:
    """exp(sum_{m, i} -L x^i q^{m i} / m) * prod_m (1 - x q^m)^{-rank}, m the modes below order.

    The modes are the positive integers, or with `half` the half-odd integers,
    and then the result carries the q^{3/2} shift and `order` is read as in
    `fock.twisted_closed_trace`.
    """
    shift = Fraction(3, 2) if half else 0
    inner = Fraction(order) - shift
    modes = []
    m = Fraction(1, 2) if half else Fraction(1)
    while m < inner:
        modes.append(m)
        m += 1
    argument: dict = {}
    for m in modes:
        i = 1
        while m * i < inner:
            argument[m * i] = argument.get(m * i, MarkerPoly(())) + MarkerPoly.x_power(i, -L / m)
            i += 1
    acc = MarkerSeries.from_terms(argument.items(), inner).exp_series()
    for m in modes:
        # (1 - x q^m)^{-rank} = sum_i C(rank + i - 1, i) x^i q^{m i}
        factor: dict = {}
        i = 0
        while m * i < inner:
            factor[m * i] = MarkerPoly.x_power(i, comb(rank + i - 1, i))
            i += 1
        acc = acc * MarkerSeries.from_terms(factor.items(), inner)
    return acc._shift(shift)
