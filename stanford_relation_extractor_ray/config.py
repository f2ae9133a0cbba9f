"""Pipeline configuration + stage registry (SURVEY.md §2.12).

The reference drives runtime behavior through 233 ``@Option`` fields on
``kbp/common/Props.java`` and constructs classifiers reflectively via
``ModelType``/``MetaClass`` (``ModelType.java:68-105``). The Ray-Data
analog: a frozen dataclass of the knobs ``build_pipeline`` reads (named
after their reference properties; any other keyword is a ``TypeError``,
not a silently ignored setting) plus a registry of swappable stage
constructors, so a user extends the engine by registering a callable —
no edits to the pipeline modules.

``build_pipeline(cfg)`` assembles the standard extraction chain from
the registry, mirroring how ``SlotfillingSystem`` wires components from
``Props``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """Engine knobs, named for their reference properties."""

    seed: int = 42
    # test.consistency.gibbsobjective (TOP = plain greedy)
    gibbs_objective: str = "TOP"
    gibbs_mixing_time: int = 10
    # test.probabilitypriors
    probability_priors: bool = False


# --- stage registry ---------------------------------------------------

STAGE_REGISTRY: dict[str, object] = {}


def register_stage(name: str, ctor) -> None:
    """Swap in a custom stage implementation by name (the
    MetaClass-reflection analog)."""
    STAGE_REGISTRY[name] = ctor


def get_stage(name: str):
    try:
        return STAGE_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown stage: {name}") from None


def _register_defaults() -> None:
    from .stages import bags, classify, consistency, featurize, link, \
        mentions, nlp
    from .stages.extract_fused import extract as fused_extract
    register_stage("annotate", nlp.annotate)
    register_stage("pair", mentions.pair)
    register_stage("link", link.link)
    register_stage("featurize", featurize.featurize)
    register_stage("bags", bags.assemble)
    register_stage("classify", classify.classify)
    register_stage("enforce", consistency.enforce)
    register_stage("extract_fused", fused_extract)


_register_defaults()


def build_pipeline(cfg: PipelineConfig):
    """→ callable(documents Dataset) → consistent fills Dataset,
    assembled from the registry per the config."""
    from .pipelines import kg

    def run(documents):
        fills = get_stage("extract_fused")(documents, seed=cfg.seed)
        if cfg.probability_priors:
            from .stages.classify import apply_probability_priors
            fills = apply_probability_priors(fills)
        return kg.finalize_fills(
            fills, seed=cfg.seed, objective=cfg.gibbs_objective,
            mixing_time=cfg.gibbs_mixing_time)

    return run
