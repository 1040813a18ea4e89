"""The three-player parity game, and the team that never loses.

Three players at separate stations each get a question, X or Y, under one
of the patterns XXX, XYY, YXY, YYX.  Without communicating, each answers
+1 or -1.  The team wins if the product of answers is -1 for XXX and +1
otherwise.  No pre-agreed answer table can win all four patterns, but a
team that shares a GHZ triple and simply measures the asked spin component
wins every single time.
"""

from ghzlab.game import (
    PATTERNS,
    TableStrategy,
    quantum_strategy,
    run_experiment,
    scan_deterministic,
)

TRIALS = 20_000


def main():
    print(__doc__)

    best_table = scan_deterministic().best_tables[0]
    contenders = [
        TableStrategy(best_table, name="best deterministic table"),
        quantum_strategy(),
        quantum_strategy(0.9),
    ]
    for strategy in contenders:
        report = run_experiment(strategy, TRIALS, master_seed=1)
        print(f"{report.strategy}: win rate {report.win_rate:.4f} over {TRIALS} rounds")
        for pattern in PATTERNS:
            rate = report.per_pattern_win_rates[pattern.value]
            print(f"    {pattern.value}: {rate:.4f}")

    print("the ideal quantum team stands at 1.0000 on every pattern;")
    print("classical tables top out at 0.75, and lossy detectors (eta = 0.9)")
    print("land between, exactly where eta^3 + (1 - eta^3)/2 says they should.")


if __name__ == "__main__":
    main()
