"""qfpsim: quantum-fingerprinting SMP protocol simulator and margin toolkit."""

__version__ = "0.1.0"

from ._kernels import USING_NUMBA
from .bounds import (
    GROTHENDIECK_K,
    MarginReport,
    forster_bound,
    linial_bound,
    margin_report,
    maximize_margin_heuristic,
    qent_lower_bound,
    repetition_lower_bound,
)
from .compiler import (
    ClassicalSMPProtocol,
    OneWayProtocol,
    VectorSystem,
    assemble_shared_randomness_states,
    classical_projection_protocol,
    compile_one_way,
    compile_smp,
    pad_to_states,
    reduce_embedding_dimension,
)
from .embeddings import (
    Realization,
    SignMatrix,
    ThresholdEmbedding,
    embed_to_realization,
    realization_to_embedding,
    reduce_realization_dimension,
    verify_realization,
    verify_threshold_embedding,
)
from .fingerprint import (
    FingerprintProtocol,
    protocol_from_embedding,
    protocol_from_margin,
    required_repetitions,
    run_protocol,
    swap_test_prob,
)
from .linalg import linf_to_l1_norm, operator_norm
from .problems import (
    eq_matrix,
    eq_parity_one_way_protocol,
    eq_parity_protocol,
    ham_matrix,
    ham_parity_embedding,
    ip_matrix,
)
from .projections import jl_dimension, project_vectors, verify_distortion
