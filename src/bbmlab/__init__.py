"""Numerical laboratory for branching Brownian motion with drift and absorption."""

__version__ = "0.1.0"
