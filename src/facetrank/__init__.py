"""Multi-faceted retrieval-augmented ranking pipeline."""

from .aspects import SubAspectList, format_target, parse_aspects, predict_aspects
from .corpus import Document, build_index, load_corpus, retrieve
from .evaluation import evaluate_response, ncom, ranking_metrics, rrf_fuse
from .pipeline import DatasetRecord, RunConfig, run_pipeline, run_stage
from .pool import Candidate, CandidatePool, merge_pool, retrieve_per_aspect
from .preferences import (build_us3_pairs, dpo_loss_value,
                          generate_rewarded_lists, oracle_generate, reward)
from .ranker import (RankerConfig, RankingList, rank, reference_backend,
                     sequence_log_prob)
from .silver import SilverTarget, aspect_weights, build_silver_list, coverage_gain
from .text_metrics import com_rouge, phi, rouge, tokenize, unigram_f1

__all__ = [
    "Candidate", "CandidatePool", "DatasetRecord", "Document", "RankerConfig",
    "RankingList", "RunConfig", "SilverTarget", "SubAspectList",
    "aspect_weights", "build_index", "build_silver_list", "build_us3_pairs",
    "com_rouge", "coverage_gain", "dpo_loss_value", "evaluate_response",
    "format_target", "generate_rewarded_lists", "load_corpus", "merge_pool",
    "ncom", "oracle_generate", "parse_aspects", "phi", "predict_aspects",
    "rank", "ranking_metrics", "reference_backend", "retrieve",
    "retrieve_per_aspect", "reward", "rouge", "rrf_fuse", "run_pipeline",
    "run_stage", "sequence_log_prob", "tokenize", "unigram_f1",
]
