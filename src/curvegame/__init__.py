"""Game-theoretic solver for the level-set formulation of mean curvature flow.

Two players repeatedly pick spherical caps; the next position moves by a
uniform random step in the cap intersection, and the game's expected payoff
solves a dynamic programming principle whose solution converges, as the step
size vanishes, to the arrival-time profile of motion by mean curvature.

Modules
-------
sphere    caps, bands, measures, averages, sampling on S^{N-1}
solver    grid discretization of the DPP; policy iteration and monotone value
          iteration to its fixed point
game      episode simulation, Monte Carlo value estimates, diagnostics
analysis  analytic oracles, lemma verification, level sets, convergence study
cli       batch command-line front end
"""

from . import analysis, errors, game, solver, sphere

__all__ = ["analysis", "errors", "game", "solver", "sphere"]
__version__ = "0.1.0"
