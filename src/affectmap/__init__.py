"""affectmap: convert word-emotion ratings between representation formats.

Core pieces: lexicon parsing and alignment, four mapping models behind
one fit/predict contract, the evaluation protocols (cross-validated
comparison, ablation, cross-lingual transfer, reliability normalization
and comparison), and lexicon generation. See the README for the CLI.
"""

__version__ = "0.1.0"

from .errors import (
    AffectMapError,
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DivergenceError,
    EmptyAlignmentError,
    EmptyOutputError,
    ParseError,
    ValidationError,
)
from .lexicon import (
    BE5,
    BUILTIN_FORMATS,
    VA,
    VAD,
    AlignedLexicon,
    Diagnostic,
    EmotionFormat,
    Lexicon,
    align,
    canonical_word,
    concat,
    parse_lexicon,
    project,
)
from .models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    ffnn_loss,
    gradient_check,
    init_ffnn,
    load_model,
    read_feature_vectors,
    save_model,
)
from .stats import (
    RaterMatrix,
    ReliabilityRecord,
    format_stars,
    normalize_shr,
    paired_t_test,
    pearson,
    read_reliability_records,
    render_reliability_records,
    sba_adjust,
    split_half_reliability,
)
from .experiments import (
    AblationReport,
    EvalReport,
    FoldSplit,
    ModelSpec,
    compare_to_shr,
    derive_seed,
    directions_for,
    make_folds,
    render_json,
    render_report_json,
    render_report_table,
    run_ablation,
    run_crosslingual,
    run_monolingual,
)
from .lexgen import (
    LexiconBuildJob,
    build_lexicons,
    format_rating,
    render_lexicon,
)
from .manifest import Manifest, load_manifest
