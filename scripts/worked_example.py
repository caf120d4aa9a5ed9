#!/usr/bin/env python3
"""Walk through the balanced-parentheses example end to end.

Shows the filtering report, the raw RPNI model (which overgeneralizes to
non-well-matched words), the pushdown model, and a bounded-equivalence
check against the ground truth.
"""

import argparse

from vpalearn import (
    VpaAlphabet,
    LabeledDataset,
    LabeledSample,
    acceptor,
    bounded_equivalence,
    builtin,
    papni_learn,
    preprocess_dataset,
    render_dot,
    rpni_learn,
)

SAMPLES = [
    ("", False),
    ("()", True),
    ("(())", True),
    ("()()", False),
    ("()()()", False),
    ("()(())", False),
    ("(", False),
    ("())", False),
    (")(", False),
    ("(()", False),
    ("(()))(", False),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dot", action="store_true",
                        help="also print the learned models as DOT")
    args = parser.parse_args()

    alphabet = VpaAlphabet(frozenset(), frozenset({"("}), frozenset({")"}))
    dataset = LabeledDataset([LabeledSample(tuple(w), l) for w, l in SAMPLES])

    kept, report = preprocess_dataset(dataset, alphabet)
    print("preprocessing:")
    for line in report.lines():
        print("  " + line)

    dfa = rpni_learn(dataset)
    print(f"\nraw RPNI model size: {dfa.size}")
    print(f"raw RPNI accepts ')()': {acceptor(dfa)(tuple(')()'))}")

    vdpa, _ = papni_learn(dataset, alphabet)
    print(f"\npushdown pipeline model size: {vdpa.size}")

    gt = builtin("balanced_parens")
    cex = bounded_equivalence(vdpa, gt.vdpa, 12)
    print(f"bounded-equivalent to ground truth (len <= 12): {cex is None}")

    if args.dot:
        print("\n" + render_dot(dfa))
        print(render_dot(vdpa))


if __name__ == "__main__":
    main()
