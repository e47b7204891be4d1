"""formalpatch: exact-arithmetic workbench for patching truncated formal
modules over presented rings.

Layers, bottom up: kernel (packed-term arithmetic and the per-basis
reducer), poly (canonical polynomials and orders), engine (reduced
Groebner bases and the derived module operations), rings (one presented
ring type for the base ring, its truncations and its localizations, with
declared prime data), towers (t-adic truncation towers and the torsion
filtration), patch (fiber-product solver and certificates), cli
(instance files, reports, repro scripts).
"""

__version__ = "0.1.0"
