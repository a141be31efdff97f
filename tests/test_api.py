import os
import subprocess
import sys
from pathlib import Path

import twobridge
from twobridge import casson_gordon, conway, enumeration, errors, families

SRC = str(Path(twobridge.__file__).resolve().parent.parent)

MODULES = (conway, casson_gordon, families, enumeration, errors)

# the 41 names the package exported when its own lists named them by hand
EXPORTED_BEFORE = [
    "BridgeFraction", "ConwayWord", "KnotClass", "UNKNOT", "normalize",
    "parse_fraction", "parse_word", "cf_eval", "cf_expand", "same_knot", "mirror",
    "is_amphicheiral", "fraction_orbit", "canonical_class", "floor_sum",
    "weighted_count", "weighted_count_oracle", "sigma", "cg_condition",
    "cg_survivors", "SigmaTerm", "SigmaReport", "generate", "family_conditions",
    "family_reps", "is_family_member", "partial_knot", "partial_fractions",
    "family0_identity_holds", "build_family_index", "ConditionMatch",
    "FamilyMembership", "enumerate_classes", "ribbon_table",
    "amphicheiral_crosscheck", "conjecture_scan", "TableRow", "CrosscheckRow",
    "ScanRecord", "DomainError", "InternalError",
]


def test_package_exports_the_joined_module_lists():
    names = twobridge.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(twobridge, name) is getattr(module, name), name
    assert len(EXPORTED_BEFORE) == 41
    assert set(EXPORTED_BEFORE) <= set(names)


# run in a fresh interpreter, so that no other test has imported numpy first
LAZY_KERNEL = r"""
import contextlib, io, sys

import twobridge, twobridge.cli
from twobridge import (
    DomainError, cg_survivors, coprime_mask, conjecture_scan, weighted_count_oracle,
)

HEAVY = ("numpy", "multiprocessing", "twobridge._kernel")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


commands = [
    ["sigma", "11", "7"], ["sigma", "11", "7", "--r", "3"], ["cg-check", "11", "7"],
    ["member", "11", "10"], ["partial", "11", "10"],
    ["generate", "--family", "1", "--params", "1,-2"],
    ["eval", "C(2,1,3)"], ["expand", "17/5"], ["table", "--max-crossing", "10"],
    ["crosscheck", "--max-crossing", "8"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = twobridge.cli.execute([*argv, "--format", "json"])
    assert code in (0, 1), (argv, code)
    assert loaded() == [], (argv, loaded())
for call in (lambda: cg_survivors(4, [1]), lambda: cg_survivors(46341, [1]),
             lambda: weighted_count_oracle(7, 7, 1), lambda: weighted_count_oracle(7, 3, 7),
             lambda: conjecture_scan(4, 2)):
    try:
        call()
    except DomainError:
        pass
    else:
        raise AssertionError("no DomainError")
    assert loaded() == [], loaded()

assert [r.to_json_line() for r in conjecture_scan(3, 11)] == [
    '{"p": 3, "q_tested": 2, "cg_passing": [2], "non_family": []}',
    '{"p": 5, "q_tested": 6, "cg_passing": [4, 7, 9], "non_family": []}',
    '{"p": 7, "q_tested": 11, "cg_passing": [6, 13, 18, 20], "non_family": []}',
    '{"p": 9, "q_tested": 14, "cg_passing": [8, 17, 31, 35], "non_family": []}',
    '{"p": 11, "q_tested": 28, "cg_passing": [10, 21, 32, 36, 43, 46, 54], "non_family": []}',
]
assert loaded() == list(HEAVY), loaded()
survivors = cg_survivors(11, [q for q in range(1, 121) if q % 11])
assert str(survivors.dtype) == "int64" and survivors.tolist() == [
    10, 12, 21, 23, 32, 34, 36, 37, 43, 45, 46, 50, 54, 56, 65, 67, 71, 75, 76, 78, 84, 85,
    87, 89, 98, 100, 109, 111,
]
import numpy as np

mask = coprime_mask(np.arange(1, 31), 15)
assert str(mask.dtype) == "bool"
assert mask.tolist() == [q % 3 != 0 and q % 5 != 0 for q in range(1, 31)]
assert (weighted_count_oracle(7, 3, 2), weighted_count_oracle(5, 7, 4)) == (27, 225)
print("ok")
"""


def test_only_the_batched_routes_load_numpy_and_multiprocessing():
    # every command but scan runs on Python ints: none loads numpy, multiprocessing
    # or the kernel module, and the public batched functions raise their
    # DomainErrors on p, q and r before they load it.  Each public function
    # that needs it loads it when called, and returns what it did when the
    # package imported numpy at its top
    proc = subprocess.run([sys.executable, "-c", LAZY_KERNEL], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_the_cli_entry_imports_neither_numpy_nor_multiprocessing():
    # the real entry, python -m twobridge through main: -X importtime lists
    # every module imported on stderr
    argv = [sys.executable, "-X", "importtime", "-m", "twobridge", "cg-check", "11", "7"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (1, "FAIL 121/7 at r=1: sigma=-7\n")
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "twobridge.cli" in imported
    forbidden = ("numpy", "multiprocessing", "ctypes")
    assert [name for name in imported if name.split(".")[0] in forbidden] == []
