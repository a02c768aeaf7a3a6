"""repro — "DFM in practice: hit or hype?" (DAC 2008), as a library.

A complete miniature design-for-manufacturability platform: Manhattan
geometry kernel, hierarchical layout database with GDSII I/O, DRC with
recommended-rule scoring, topological pattern catalogs and matching (DRC
Plus), scalar litho simulation with OPC/SRAF/ORC, double-patterning
decomposition, critical-area yield models with redundant vias and wire
spreading, CMP dummy fill, CD-aware timing — and, on top, the hit-or-hype
evaluation harness that turns the DAC'08 panel debate into measured
benefit/cost verdicts.

Quickstart::

    from repro import make_node, generate_logic_block, LogicBlockSpec
    from repro import evaluate_techniques

    tech = make_node(45)
    block = generate_logic_block(tech, LogicBlockSpec(rows=3, weak_spots=8))
    card = evaluate_techniques(block.top, tech)
    print(card.render())

Every top-level name resolves on first access (PEP 562): ``import
repro`` loads no engine and none of numpy, scipy or networkx, and costs
little more than starting the interpreter.  The engine modules
themselves import their dependencies eagerly, so a process that has
called an engine already holds them when its worker pool forks, and
pooled workers inherit them instead of importing them again.
"""

from importlib import import_module

__version__ = "1.0.0"

# Lazy exports: name -> module it is re-exported from.  Resolved on first
# attribute access, after which the value is cached in module globals.
_LAZY = {
    # geometry kernel
    **dict.fromkeys(
        ("Point", "Rect", "Polygon", "Region", "Orientation", "Transform", "GridIndex"),
        "repro.geometry",
    ),
    # layout database + IO
    **dict.fromkeys(("Layer", "Cell", "CellReference", "Layout"), "repro.layout"),
    **dict.fromkeys(("read_gds", "write_gds", "read_json", "write_json"), "repro.gdsii"),
    # technology
    **dict.fromkeys(
        ("Technology", "RuleDeck", "RuleSeverity", "make_node", "NODE_65", "NODE_45", "NODE_32"),
        "repro.tech",
    ),
    # observability
    **dict.fromkeys(
        ("MetricsRegistry", "RunManifest", "get_registry", "get_tracer", "span"), "repro.obs"
    ),
    # the stable high-level facade (a submodule) and the unified report API
    "api": "repro.api",
    "BaseReport": "repro.core.report",
    # engines
    **dict.fromkeys(
        (
            "Tile", "TileCache", "TileExecutor", "tile_grid",
            "AbortRun", "Checkpoint", "FaultPlan", "QuarantinedTile",
        ),
        "repro.parallel",
    ),
    **dict.fromkeys(
        ("run_drc", "DrcReport", "Violation", "score_recommended_rules", "DfmScore"),
        "repro.drc",
    ),
    **dict.fromkeys(
        (
            "PatternCatalog", "PatternMatcher", "extract_patterns",
            "via_enclosure_catalog", "kl_divergence", "cluster_snippets",
        ),
        "repro.patterns",
    ),
    **dict.fromkeys(
        (
            "LithoModel", "simulate", "ProcessWindow", "pv_bands", "measure_cd",
            "Cutline", "find_hotspots", "Hotspot",
        ),
        "repro.litho",
    ),
    **dict.fromkeys(
        ("apply_rule_opc", "apply_model_opc", "insert_srafs", "verify_opc"), "repro.opc"
    ),
    **dict.fromkeys(
        ("decompose_dpt", "decompose_with_stitches", "score_decomposition"), "repro.dpt"
    ),
    **dict.fromkeys(
        (
            "critical_area_shorts", "critical_area_opens",
            "yield_poisson", "yield_negative_binomial",
            "insert_redundant_vias", "spread_wires", "widen_wires",
        ),
        "repro.yieldmodels",
    ),
    **dict.fromkeys(("density_map", "dummy_fill", "thickness_map"), "repro.cmp"),
    # generators
    **dict.fromkeys(
        (
            "make_stdcell_library", "generate_logic_block", "LogicBlockSpec",
            "generate_sram_array", "line_grating", "via_chain",
        ),
        "repro.designgen",
    ),
    # extensions: connectivity extraction and statistical variation
    **dict.fromkeys(
        ("extract_nets", "check_connectivity", "electrical_hotspot_impact"), "repro.extract"
    ),
    **dict.fromkeys(
        (
            "ProcessSampler", "simulate_cd_distribution", "process_capability",
            "statistical_path_delays",
        ),
        "repro.variation",
    ),
    # the contribution
    **dict.fromkeys(
        (
            "DesignContext", "DesignMetrics", "measure_design",
            "DFMTechnique", "default_techniques", "Scorecard", "Verdict",
            "evaluate_techniques",
        ),
        "repro.core",
    ),
}

__all__ = [*_LAZY]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(module_name)
    # a submodule export (``api``) is the module itself
    value = module if module_name == f"{__name__}.{name}" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
