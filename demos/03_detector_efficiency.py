"""How good must detectors be before the win rate means anything?

A quantum player whose detector stays silent answers with a fair coin.
All three detectors fire with probability eta^3, so the team wins with
probability eta^3 + (1 - eta^3)/2.  Beating the classical ceiling of 0.75
therefore needs eta^3 > 0.5, i.e. eta above 0.5**(1/3), about 0.794.
"""

from ghzlab.game import (
    quantum_strategy,
    run_experiment,
    theoretical_win_rate,
)

TRIALS = 20_000
GRID = (0.0, 0.25, 0.5, 0.7, 0.7937, 0.9, 1.0)


def main():
    print(__doc__)
    threshold = 0.5 ** (1 / 3)
    print(f"threshold efficiency: 0.5**(1/3) = {threshold:.6f}, "
          f"where the formula gives {theoretical_win_rate(threshold):.6f}")
    print()
    print(f"{'eta':>8}  {'empirical':>10}  {'formula':>10}   ({TRIALS} trials per row)")
    for k, eta in enumerate(GRID):
        strategy = quantum_strategy(eta)
        report = run_experiment(strategy, TRIALS, master_seed=k)
        marker = "  <- beats any classical team" if theoretical_win_rate(eta) > 0.75 else ""
        print(f"{eta:8.4f}  {report.win_rate:10.4f}  {theoretical_win_rate(eta):10.4f}{marker}")


if __name__ == "__main__":
    main()
