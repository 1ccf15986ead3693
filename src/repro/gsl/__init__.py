"""Mini-GSL: FPIR ports of the paper's three GSL benchmarks.

* :mod:`repro.gsl.bessel` — ``gsl_sf_bessel_Knu_scaled_asympx_e``
  (verbatim Fig. 5, 23 elementary ops).
* :mod:`repro.gsl.hyperg` — ``gsl_sf_hyperg_2F0_e`` (8 elementary ops).
* :mod:`repro.gsl.airy` — ``gsl_sf_airy_Ai_e`` with the full negative-x
  modulus/phase machinery and both confirmed bugs.
* :mod:`repro.gsl.cheb` / :mod:`repro.gsl.trig` — the shared
  Chebyshev and trigonometric substrate.

All ports follow the GSL status + ``gsl_sf_result`` convention through
the globals ``status`` / ``result_val`` / ``result_err``.

The ports are not imported with the package: ``airy`` loads
``scipy.special`` and fits Chebyshev tables at import, a cost only its
own users should pay.  ``from repro.gsl import airy`` imports one port.
"""

__all__ = ["airy", "bessel", "cheb", "hyperg", "machine", "trig"]
