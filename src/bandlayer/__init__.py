"""Optimal-trading no-trade bands under linear plus small nonlinear costs.

The package computes the exact linear-cost band via a Green's-function
construction, the boundary-layer correction from small quadratic or
power-law costs via matched asymptotics, and validates both against a
finite-difference solve of the full control problem.
"""

__version__ = "0.1.0"
