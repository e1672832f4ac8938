"""Choquet-regularized exploratory mean-variance portfolio control.

Closed-form solutions, distortion-induced exploration samplers, a wealth
simulator and a model-free actor-critic trainer, plus a CLI that drives
the simulation-study experiments.
"""

__version__ = "0.1.0"
