"""Builders shared across test modules."""

import itertools

import numpy as np

from it2fuzz import IT2Gaussian, InferenceResult, Partition, Rule, RuleBase, ScaledGaussian

from oracles import DEMO_CONSEQUENTS

DEMO_SIGMA = 0.418
DEMO_SPREAD = 0.125


def demo_partition(spread: float = DEMO_SPREAD) -> Partition:
    return Partition(
        universe=(-1.0, 1.0),
        sets=tuple(IT2Gaussian.uncertain_mean(c - spread, c + spread, DEMO_SIGMA)
                   for c in (-1.0, 0.0, 1.0)),
        names=("N", "Z", "P"),
    )


def demo_like_rulebase(spread: float = DEMO_SPREAD,
                       consequents=DEMO_CONSEQUENTS) -> RuleBase:
    rules = tuple(Rule((i, j), consequents[i * 3 + j])
                  for i in range(3) for j in range(3))
    return RuleBase((demo_partition(spread), demo_partition(spread)), rules)


def collapsed_rulebase() -> RuleBase:
    """Demo layout with zero mean spread, so both FOU bounds coincide."""
    return demo_like_rulebase(spread=0.0)


def split_rulebase(rb: RuleBase, offset: float = 0.1) -> RuleBase:
    """Copy of rb with each consequent replaced by a +/- offset split pair."""
    rules = tuple(Rule(r.antecedent, r.consequent,
                       r.consequent + offset, r.consequent - offset)
                  for r in rb.rules)
    return RuleBase(rb.partitions, rules)


def partly_collapsed_rulebase() -> RuleBase:
    """Demo rules, split, over narrow fitted sets whose middle one has zero
    mean spread: regular, upper-average and no-firing rows interleave."""
    p = Partition((-1.0, 1.0), tuple(
        IT2Gaussian.uncertain_mean(lo, hi, 0.05).fit()
        for lo, hi in ((-1.05, -0.95), (0.0, 0.0), (0.95, 1.05))))
    return split_rulebase(RuleBase((p, p), demo_like_rulebase().rules))


def huge_split_rulebase() -> RuleBase:
    """Collapsed demo with split consequents +-1e308, opposite within a rule
    and alternating across rules: the regular split terms of a row overflow
    ``math.fsum`` where its upper-firing average does not."""
    rb = collapsed_rulebase()
    return RuleBase(rb.partitions, tuple(
        Rule(r.antecedent, r.consequent, s * 1e308, -s * 1e308)
        for r, s in zip(rb.rules, itertools.cycle((1.0, -1.0)))))


def uneven_partition(centers) -> Partition:
    """Sets alternating uncertain mean and uncertain sigma, fitted by hand."""
    sets = []
    for k, c in enumerate(centers):
        s = (IT2Gaussian.uncertain_mean(c - 0.1, c + 0.1, 0.3) if k % 2 == 0
             else IT2Gaussian.uncertain_sigma(c, 0.2, 0.35))
        sets.append(s.with_fitted(ScaledGaussian(c, 0.4, 1.0),
                                  ScaledGaussian(c, 0.25, 0.9 - 0.05 * k)))
    return Partition((-1.0, 1.0), tuple(sets))


def uneven_rulebase() -> RuleBase:
    """Three inputs with 2, 3 and 4 sets; rules out of row-major order."""
    parts = (uneven_partition((-0.5, 0.5)), uneven_partition((-0.8, 0.0, 0.8)),
             uneven_partition((-0.9, -0.3, 0.3, 0.9)))
    combos = sorted(itertools.product(range(2), range(3), range(4)),
                    key=lambda a: (a[2], -a[1], a[0]))
    rules = tuple(Rule(a, b, b + 0.1, b - 0.2)
                  for a, b in zip(combos, np.linspace(-1.0, 1.0, len(combos)).tolist()))
    return RuleBase(parts, rules)


def one_input_rulebase(centers=(-0.7, -0.2, 0.3, 0.8)) -> RuleBase:
    """One input with four sets, split consequents, rules in reverse order."""
    rules = tuple(Rule((k,), 0.5 - 0.4 * k, 0.6 - 0.4 * k, 0.3 - 0.4 * k)
                  for k in reversed(range(len(centers))))
    return RuleBase((uneven_partition(centers),), rules)


class ConstantEngine:
    """Stand-in engine with a fixed crisp output."""

    def __init__(self, value: float, degenerate: bool = False):
        self.value = value
        self.degenerate = degenerate

    def infer(self, x):
        return InferenceResult(self.value, self.degenerate)
