"""Exact counting and uniform random generation of k-noncrossing set
partitions (and their 2-regular restriction), via chamber-confined lattice
walks over Young-diagram shapes."""

from .bijection import (
    CrossingError,
    Filling,
    braid_to_partition,
    braid_walk_to_partition_walk,
    decode_braid,
    decode_partition,
    encode_partition,
    partition_to_braid,
    partition_walk_to_braid_walk,
)
from .counting import (
    ChamberTable,
    InvariantError,
    LoopFreeTable,
    TableLimitError,
    total_partitions,
    total_regular,
)
from .diagrams import (
    ArcStructureError,
    Braid,
    CrossingReport,
    Partition,
    blocks_from_arcs,
    is_k_noncrossing,
    is_m_regular,
    max_crossing,
    max_crossing_brute,
    parse_blocks_text,
)
from .sampler import (
    RandomBits,
    SamplerSession,
    TransitionWeights,
    partition_weights,
    path_probability,
    regular_weights,
    uniform_below,
)
from .store import CacheError, load_tables, save_tables
from .walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    WalkError,
    apply_step,
    format_steps,
    in_chamber,
    in_orthant,
    legal_steps,
    parse_steps,
    point_to_shape,
    shape_to_point,
    start_point,
    validate_walk,
    walk_from_text,
)

__version__ = "0.1.0"

# The oracles are cross-checks that the commands do not need; they load on
# first use (PEP 562), so `import nckp.cli` stays light.
_ORACLE_NAMES = frozenset({
    "OrthantTable",
    "build_orthant_table",
    "chamber_count",
    "loop_free_even_count",
    "loop_free_odd_count",
    "reflected_count",
    "signed_permutations",
})


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        from importlib import import_module

        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
