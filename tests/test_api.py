import twobridge
from twobridge import casson_gordon, conway, enumeration, errors, families

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
