"""rhopf: exact verification of R-matrix exchange algebras and their Hopf
structures, with a formal-mode layer recovering quantum-affine current
relations."""

__version__ = "0.1.0"
