"""Exact counting and uniform random generation of k-noncrossing set
partitions (and their 2-regular restriction), via chamber-confined lattice
walks over Young-diagram shapes.

`import nckp` loads no submodule.  Each name below loads its module on
first use (PEP 562), so a command pays only for the code it runs:
`nckp count` never imports the sampler, and only `nckp verify`, the tests
and a read of the paper's transition weights (path_probability,
partition_weights, regular_weights, TransitionWeights, from here or from
`nckp.sampler`) import the oracles.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "bijection": (
        "CrossingError",
        "Filling",
        "braid_to_partition",
        "braid_walk_to_partition_walk",
        "decode_braid",
        "decode_partition",
        "encode_partition",
        "partition_to_braid",
        "partition_walk_to_braid_walk",
    ),
    "counting": (
        "ChamberTable",
        "InvariantError",
        "LoopFreeTable",
        "TableLimitError",
        "total_partitions",
        "total_regular",
    ),
    "diagrams": (
        "ArcStructureError",
        "Braid",
        "CrossingReport",
        "Partition",
        "blocks_from_arcs",
        "is_k_noncrossing",
        "is_m_regular",
        "max_crossing",
        "max_crossing_brute",
        "parse_blocks_text",
    ),
    "sampler": (
        "RandomBits",
        "SamplerSession",
        "uniform_below",
    ),
    "store": ("CacheError", "load_tables", "save_tables"),
    "walks": (
        "BRAID_WALK",
        "PARTITION_WALK",
        "Walk",
        "WalkError",
        "apply_step",
        "format_steps",
        "in_chamber",
        "in_orthant",
        "legal_steps",
        "parse_steps",
        "point_to_shape",
        "shape_to_point",
        "start_point",
        "validate_walk",
        "walk_from_text",
    ),
    "oracle": (
        "OrthantTable",
        "TransitionWeights",
        "build_orthant_table",
        "chamber_count",
        "loop_free_even_count",
        "loop_free_odd_count",
        "partition_weights",
        "path_probability",
        "reflected_count",
        "regular_weights",
        "signed_permutations",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Load an exported name, or a submodule such as `nckp.oracle`, on
    first use, and keep it so later lookups skip this hook."""
    if name in _MODULE_OF:
        module = _MODULE_OF[name]
    elif name in _EXPORTS:
        module = name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
