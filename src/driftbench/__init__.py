"""driftbench: build word-vector models and measure how meanings drift.

The pipeline: tokenize a corpus, build count-based or CBOW-trained vector
spaces, and compare models differentially (neighbor lists) or absolutely
(vector positions, after optional rigid alignment). Count models can also
be viewed as weighted word networks and intersected across speakers.
"""

from .corpus import (
    CorpusStats,
    Document,
    TokenStream,
    Vocabulary,
    build_vocabulary,
    corpus_stats,
    load_stoplist,
    read_corpus,
    remove_stopwords,
    tokenize,
    tokenize_document,
)
from .count_model import (
    CooccurrenceMatrix,
    WindowConfig,
    augment_counts,
    count_cooccurrences,
    load_cooc,
    ppmi_transform,
    row_vector,
    save_cooc,
)
from .errors import (
    DataError,
    DimensionMismatchError,
    DriftbenchError,
    EmptyVocabularyError,
    EncodingError,
    NumericalError,
    UnknownWordError,
    ZeroVectorError,
)
from .graph import (
    SemanticGraph,
    SemanticPath,
    degree_ranking,
    export_edge_list,
    export_graphml,
    from_counts,
    import_edge_list,
    intersection,
    shortest_path,
    to_counts,
)
from .stability import (
    AlignmentResult,
    CrossSeedReport,
    Displacement,
    NeighborDiff,
    StabilityReport,
    apply_alignment,
    cross_seed_stability,
    diff_neighbor_lists,
    displacement,
    jaccard_at_k,
    neighbor_diff,
    overlap_at_k,
    procrustes_align,
    random_orthogonal,
    random_rotation,
    random_signed_permutation,
    stability_report,
)
from .synthetic import synthetic_corpus
from .trainer import (
    EmbeddingSpace,
    ModelState,
    TrainingConfig,
    gradient_check,
    init_state,
    load_checkpoint,
    load_embedding_text,
    save_checkpoint,
    save_embedding_text,
    train_cbow,
    train_skipgram,
    training_loss,
)
from .vector_space import (
    NeighborList,
    VectorSpace,
    WordVector,
    analogy,
    cosine_similarity,
    nearest_neighbors,
    neighbor_table,
    vector_distance,
)

__version__ = "0.1.0"
