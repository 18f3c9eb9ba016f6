"""Exact braid-group arithmetic over the Klein bottle and the Borsuk-Ulam
classification of homotopy classes of maps from the torus into it."""

from .braid import (
    B_IDENTITY,
    SIGMA_SQ,
    BraidElt,
    bmul,
    decompose,
    forced_word_exponents,
    formula_ablsiga,
    formula_blsiga,
    gmap,
    lsigma,
    p1,
    parse_braid,
    rho,
    theta,
)
from .certificate import (
    CertificateReport,
    Functional,
    MasterEquation,
    MasterForms,
    check_certificate,
    equation_even_even,
    equation_even_odd,
    equation_first_odd,
    master_forms,
    mu_nu_operators,
    xi_column,
    xi_congruence,
    xi_count,
    xi_parity,
    xi_row,
)
from .classifier import (
    HomClass,
    HomDescriptor,
    Verdict,
    central_shift_equiv,
    decide,
    normalize,
    validate,
)
from .kernel import (
    KernelOperator,
    KernelVector,
    c_ab,
    c_agreement,
    expand,
    project,
    q_identity_check,
    rho_ab,
    theta_ab,
    tilde_i,
    tilde_j,
    tilde_o,
    tilde_q,
    tilde_t,
    word_i,
    word_j,
    word_o,
    word_q,
    word_t,
)
from .kleinpi import (
    K_IDENTITY,
    KleinElt,
    delta,
    eps,
    omega,
    parse_klein,
    sign_of,
)
from .witness import (
    SearchBounds,
    SearchResult,
    WitnessReport,
    WitnessVerificationError,
    build_witness,
    search_witness,
    verify_pair,
)
from .words import (
    BIG_B,
    ONE,
    U,
    V,
    Word,
    WordParseError,
    comm,
    parse_word,
)

__version__ = "0.1.0"
