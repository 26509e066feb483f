import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import nckp

EXPORTS = {
    "bijection": [
        "CrossingError", "Filling", "braid_to_partition",
        "braid_walk_to_partition_walk", "decode_braid", "decode_partition",
        "encode_partition", "partition_to_braid",
        "partition_walk_to_braid_walk",
    ],
    "counting": [
        "ChamberTable", "InvariantError", "LoopFreeTable", "TableLimitError",
        "total_partitions", "total_regular",
    ],
    "diagrams": [
        "ArcStructureError", "Braid", "CrossingReport", "Partition",
        "blocks_from_arcs", "is_k_noncrossing", "is_m_regular",
        "max_crossing", "max_crossing_brute", "parse_blocks_text",
    ],
    "sampler": ["RandomBits", "SamplerSession", "uniform_below"],
    "store": ["CacheError", "load_tables", "save_tables"],
    "walks": [
        "BRAID_WALK", "PARTITION_WALK", "Walk", "WalkError", "apply_step",
        "format_steps", "in_chamber", "in_orthant", "legal_steps",
        "parse_steps", "point_to_shape", "shape_to_point", "start_point",
        "validate_walk", "walk_from_text",
    ],
    "oracle": [
        "OrthantTable", "TransitionWeights", "build_orthant_table",
        "chamber_count", "loop_free_even_count", "loop_free_odd_count",
        "partition_weights", "path_probability", "reflected_count",
        "regular_weights", "signed_permutations",
    ],
}
NAMES = [(name, module) for module, names in EXPORTS.items() for name in names]
# walks re-exports the chamber geometry that counting defines
HOME = {"start_point": "counting", "in_chamber": "counting"}


def test_all_lists_every_export():
    assert nckp.__all__ == [name for name, _ in NAMES]


@pytest.mark.parametrize("name, module", NAMES)
def test_export_resolves_to_its_defining_object(name, module):
    value = getattr(nckp, name)
    assert value is getattr(import_module(f"nckp.{module}"), name)
    home = HOME.get(name, module)
    if callable(value):
        assert value.__module__ == f"nckp.{home}"


def test_dir_submodules_and_unknown_names():
    assert {name for name, _ in NAMES} <= set(dir(nckp))
    for module in EXPORTS:
        assert getattr(nckp, module) is import_module(f"nckp.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        nckp.no_such_name  # noqa: B018


def test_import_loads_no_submodule_and_star_import_works():
    code = ("import sys\nimport nckp\n"
            "print(*sorted(m for m in sys.modules if m.startswith('nckp')))\n"
            "from nckp import *\n"
            "print(total_partitions(3, 6), SamplerSession.__name__,"
            " chamber_count.__module__)")
    env = dict(os.environ, PYTHONPATH=str(Path(nckp.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["nckp", "202 SamplerSession nckp.oracle"]
