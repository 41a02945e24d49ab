"""Seeded input generation for every workload.

Everything the system under test sees is built here, from the run's
seed, before any timing starts.  ``repro.ecommerce`` and
``repro.datasets`` are used as the *generator* only: the benchmark
never times them.

The vocabulary and analyzer settings are the small ones the repo's own
quick benches use, so a full train fits in a few seconds; D0 and D1
keep the paper's class ratios at a scaled-down size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collector.records import CommentRecord, ItemRecord
from repro.core.config import CATSConfig, LexiconConfig, Word2VecConfig
from repro.datasets.builders import build_d0, build_semantic_corpus
from repro.ecommerce.generator import PlatformGenerator
from repro.ecommerce.language import SyntheticLanguage
from repro.ecommerce.profiles import taobao_profile


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark preset."""

    #: Raw comments in the word2vec corpus.
    corpus_comments: int
    #: Labeled reviews for the sentiment model.
    sentiment_documents: int
    #: D0 scale (fraction of the paper's 34k-item training set).
    d0_scale: float
    #: Scale of each offline-audit D1 slice (fraction of the 1.48M-item
    #: snapshot) and how many independent slices make up D1.
    audit_d1_scale: float
    audit_d1_slices: int
    #: Comments per offline-audit batch: D1 is audited in batches of
    #: consecutive items holding about this many comments each.
    audit_comments: int
    #: D1 scale of the platform slice the serve workloads stream.
    serve_d1_scale: float
    #: D1 scale of the slice ``serve_read`` picks its items from.
    read_d1_scale: float
    #: Items pre-ingested and then looked up by ``serve_read``.
    read_items: int
    #: Items per audit batch sampled for the offline audit's
    #: bit-identity gate.
    gate_items: int


FULL = Size(
    corpus_comments=6_000,
    sentiment_documents=6_000,
    d0_scale=0.01,
    audit_d1_scale=0.001,
    audit_d1_slices=3,
    audit_comments=1_000,
    serve_d1_scale=0.001,
    read_d1_scale=0.0003,
    read_items=16,
    gate_items=2,
)

TINY = Size(
    corpus_comments=1_500,
    sentiment_documents=800,
    d0_scale=0.003,
    audit_d1_scale=0.0002,
    audit_d1_slices=2,
    audit_comments=300,
    serve_d1_scale=0.0002,
    read_d1_scale=0.0002,
    read_items=8,
    gate_items=2,
)

SIZES = {"full": FULL, "tiny": TINY}

#: Comment rows per crawled page (one item per page).
PAGE_SIZE = 16
#: Share of pages that re-carry rows of the item's previous page, as a
#: re-crawl of an overlapping comment page does.
RECRAWL_SHARE = 0.2
#: Seed of the model the serve workloads load (fixed: the serve
#: workloads vary the traffic, not the model).
SERVE_MODEL_SEED = 7


def language() -> SyntheticLanguage:
    """The platform language (fixed; the seed varies the data)."""
    return SyntheticLanguage(
        n_positive=60,
        n_negative=60,
        n_neutral=220,
        n_function=40,
        n_variant_sources=10,
        n_topics=6,
        seed=42,
    )


def cats_config() -> CATSConfig:
    """Analyzer/detector settings sized for a seconds-long train."""
    return CATSConfig(
        lexicon=LexiconConfig(max_size=80, k_neighbors=8),
        word2vec=Word2VecConfig(dim=24, epochs=3, min_count=2),
    )


def training_inputs(seed: int, size: Size, lang: SyntheticLanguage) -> dict:
    """Everything ``cats train`` consumes: analyzer corpora plus D0."""
    rng = np.random.default_rng([seed, 1])
    corpus = build_semantic_corpus(
        lang,
        n_comments=size.corpus_comments,
        seed=int(rng.integers(0, 2**31)),
    )
    documents, labels = lang.sentiment_corpus(size.sentiment_documents, rng)
    d0 = build_d0(lang, scale=size.d0_scale, seed=int(rng.integers(0, 2**31)))
    return {
        "comment_corpus": corpus,
        "dictionary": lang.dictionary_weights(),
        "sentiment_documents": documents,
        "sentiment_labels": labels,
        "positive_seeds": lang.positive_seeds[:3],
        "negative_seeds": lang.negative_seeds[:3],
        "d0_items": d0.items,
        "d0_labels": d0.labels,
    }


def d1_platform(seed: int, scale: float, lang: SyntheticLanguage, id_offset: int = 0):
    """A D1-style platform slice: the paper's ~1.26% fraud ratio and the
    generator's natural share of duplicate comment texts.  Slices built
    with different *id_offset* values (multiples of 10^9) never share
    an id."""
    profile = taobao_profile().scaled(scale)
    return PlatformGenerator(profile, lang, seed=seed, id_offset=id_offset).generate()


def comment_row(platform, comment) -> dict:
    """One comment in the paper's Listing-2 row shape (as crawled)."""
    user = platform.user(comment.user_id)
    return {
        "item_id": str(comment.item_id),
        "comment_id": str(comment.comment_id),
        "comment_content": comment.content,
        "nickname": user.anonymized_nickname(),
        "userExpValue": str(user.exp_value),
        "client_information": comment.client.value,
        "date": comment.date,
    }


def crawl_records(platform) -> tuple[list[ItemRecord], list[CommentRecord]]:
    """The slice as a crawl would store it (``cats crawl`` output)."""
    items = [
        ItemRecord(
            item_id=item.item_id,
            shop_id=item.shop_id,
            item_name=item.name,
            price=item.price,
            sales_volume=item.sales_volume,
        )
        for item in platform.items
    ]
    comments = [
        CommentRecord.from_row(comment_row(platform, comment))
        for item in platform.items
        for comment in item.comments
    ]
    return items, comments


def audit_batches(items, comments, target: int) -> list[tuple[list, list]]:
    """Split a crawled slice into audit batches of consecutive items
    holding about *target* comments each (a short tail joins the batch
    before it).  Returns ``(items, comments)`` per batch."""
    by_item: dict[int, list] = {}
    for comment in comments:
        by_item.setdefault(comment.item_id, []).append(comment)
    batches: list[tuple[list, list]] = []
    batch_items: list = []
    batch_comments: list = []
    for item in items:
        batch_items.append(item)
        batch_comments += by_item.get(item.item_id, [])
        if len(batch_comments) >= target:
            batches.append((batch_items, batch_comments))
            batch_items, batch_comments = [], []
    if batch_items:
        if batches and len(batch_comments) < target // 2:
            batches[-1][0].extend(batch_items)
            batches[-1][1].extend(batch_comments)
        else:
            batches.append((batch_items, batch_comments))
    return batches


def item_pages(platform, item, rng: np.random.Generator) -> list[dict]:
    """An item's comments as ``/ingest`` crawl pages, in crawl order.

    Every page carries the listing's sales row.  A share of pages
    re-carries rows of the previous page (an overlapping re-crawl), so
    ingest dedupe has work to do.
    """
    rows = [comment_row(platform, comment) for comment in item.comments]
    pages = []
    for start in range(0, len(rows), PAGE_SIZE):
        page = rows[start : start + PAGE_SIZE]
        if start and rng.random() < RECRAWL_SHARE:
            n_again = int(rng.integers(1, min(3, start) + 1))
            page = rows[start - n_again : start] + page
        pages.append(
            {"comments": page, "sales": [[item.item_id, item.sales_volume]]}
        )
    return pages
