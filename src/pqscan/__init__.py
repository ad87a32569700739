"""Product-quantization nearest-neighbor search toolkit.

Short-code compression (PQ/OPQ), table-lookup scans, an inverted index over
residuals, and two accelerated scan kernels: one pruned exact scan over
nibble-packed 4-bit codes and 8x8 codes (Quick ADC and fast scan), and a
two-pass search with derived low-resolution quantizers.
"""

from ._binio import FormatError
from .data import (
    GroundTruth,
    exact_knn,
    generate_synthetic,
    read_vecs,
    recall_at_r,
    write_vecs,
)
from .derived import (
    CBINS,
    Candidates,
    LazyTables,
    adc_low_bits,
    compute_compact_tables,
    quantize_compact_tables,
    rerank,
    scan_candidates,
    search_two_pass,
    train_derived,
)
from .fastscan import (
    GroupedDatabase,
    assignment_permutation,
    fast_scan,
    group_codes,
    optimize_centroid_assignment,
    relabel_codes,
)
from .ivf import IvfIndex, build_ivf, default_r2, load_ivf, query_ivf, save_ivf
from .quantizer import (
    DerivedPQ,
    ProductQuantizer,
    TrainConfig,
    TrainError,
    decode,
    encode,
    kmeans,
    load_quantizer,
    same_size_kmeans,
    save_quantizer,
    train_opq,
    train_pq,
)
from .quickadc import qadc_scan, quantized_distances
from .scan import (
    CodeList,
    LookupTables,
    NeighborSet,
    ScanStats,
    TransposedCodeList,
    compute_tables,
    detranspose_blocks,
    load_codes,
    save_codes,
    scan,
    scan_distances,
    transpose_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "CBINS",
    "Candidates",
    "CodeList",
    "DerivedPQ",
    "FormatError",
    "GroundTruth",
    "GroupedDatabase",
    "IvfIndex",
    "LazyTables",
    "LookupTables",
    "NeighborSet",
    "ProductQuantizer",
    "ScanStats",
    "TrainConfig",
    "TrainError",
    "TransposedCodeList",
    "adc_low_bits",
    "assignment_permutation",
    "build_ivf",
    "compute_compact_tables",
    "compute_tables",
    "decode",
    "default_r2",
    "detranspose_blocks",
    "encode",
    "exact_knn",
    "fast_scan",
    "generate_synthetic",
    "group_codes",
    "kmeans",
    "load_codes",
    "load_ivf",
    "load_quantizer",
    "optimize_centroid_assignment",
    "qadc_scan",
    "quantize_compact_tables",
    "quantized_distances",
    "query_ivf",
    "read_vecs",
    "recall_at_r",
    "relabel_codes",
    "rerank",
    "same_size_kmeans",
    "save_codes",
    "save_ivf",
    "save_quantizer",
    "scan",
    "scan_candidates",
    "scan_distances",
    "search_two_pass",
    "train_derived",
    "train_opq",
    "train_pq",
    "transpose_blocks",
    "write_vecs",
]
