"""The hot kernel's public names.

Everything is implemented in formalpatch._kernel_py; the layers above
call it through this module, so that these names are the one place a
tracer or a test counter wraps kernel calls.
"""

from formalpatch._kernel_py import (  # noqa: F401
    BACKEND,
    EXP_LIMIT,
    Layout,
    Reducer,
    add_vec,
    canon_vec,
    cmp_mono,
    cmp_term,
    coeff_inv,
    layout,
    monic_vec,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    mul_vec_poly,
    neg_vec,
    nf_vec,
    scale_vec,
    spair_vec,
    term_sortkey,
)
