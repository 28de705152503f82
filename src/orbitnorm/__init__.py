"""Normality of orthogonal/symplectic nilpotent orbit closures from partition data."""

__version__ = "0.1.0"
