"""Typed crawl-record schemas.

Three record types match the three data types the paper's collector
gathers (Section IV-A): shop data (id, url, name), item data (id, name,
price, sales volume) and comment data (the Listing 2 fields).  Records
parse defensively from raw row dicts -- a real crawl sees missing and
malformed fields -- and :class:`CrawledItem` bundles one item with its
cleaned comments, which is the unit CATS' feature extractor consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


class RecordParseError(ValueError):
    """A raw row could not be parsed into a record."""


def _require(row: dict[str, Any], key: str) -> Any:
    if key not in row or row[key] in (None, ""):
        raise RecordParseError(f"missing field {key!r} in row {row!r}")
    return row[key]


@dataclass(frozen=True)
class ShopRecord:
    """Basic information extracted from a shop homepage."""

    shop_id: int
    shop_url: str
    shop_name: str

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "ShopRecord":
        """Parse a shop directory row; raises RecordParseError."""
        try:
            return cls(
                shop_id=int(_require(row, "shop_id")),
                shop_url=str(_require(row, "shop_url")),
                shop_name=str(_require(row, "shop_name")),
            )
        except (TypeError, ValueError) as exc:
            raise RecordParseError(str(exc)) from exc


@dataclass(frozen=True)
class ItemRecord:
    """Basic information extracted from a shop's item listing."""

    item_id: int
    shop_id: int
    item_name: str
    price: float
    sales_volume: int

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "ItemRecord":
        """Parse an item listing row; raises RecordParseError."""
        try:
            return cls(
                item_id=int(_require(row, "item_id")),
                shop_id=int(_require(row, "shop_id")),
                item_name=str(_require(row, "item_name")),
                price=float(_require(row, "price")),
                sales_volume=int(_require(row, "sales_volume")),
            )
        except (TypeError, ValueError) as exc:
            raise RecordParseError(str(exc)) from exc


@dataclass(frozen=True)
class CommentRecord:
    """One comment row, in the shape of the paper's Listing 2."""

    item_id: int
    comment_id: int
    content: str
    nickname: str
    user_exp_value: int
    client: str
    date: str

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "CommentRecord":
        """Parse a comment-page row; raises RecordParseError."""
        try:
            return cls(
                item_id=int(_require(row, "item_id")),
                comment_id=int(_require(row, "comment_id")),
                content=str(_require(row, "comment_content")),
                nickname=str(_require(row, "nickname")),
                user_exp_value=int(_require(row, "userExpValue")),
                client=str(_require(row, "client_information")),
                date=str(_require(row, "date")),
            )
        except (TypeError, ValueError) as exc:
            raise RecordParseError(str(exc)) from exc

    @property
    def user_key(self) -> tuple[str, int]:
        """Approximate unique-user key.

        The paper identifies unique users by the (nickname,
        userExpValue) pair because real user ids are not public.
        """
        return (self.nickname, self.user_exp_value)

    def to_dict(self) -> dict[str, Any]:
        """Field dict equal to ``dataclasses.asdict(self)``, key order too.

        Every field is an immutable str or int, so ``asdict``'s
        recursive deep copy has nothing to copy; building the dict
        directly is ~20x cheaper per record on the checkpoint, routing
        and recording paths.
        """
        return {
            "item_id": self.item_id,
            "comment_id": self.comment_id,
            "content": self.content,
            "nickname": self.nickname,
            "user_exp_value": self.user_exp_value,
            "client": self.client,
            "date": self.date,
        }

    def to_json(self) -> str:
        """Serialize to one JSON line."""
        return json.dumps(self.to_dict(), ensure_ascii=False)


@dataclass
class CrawledItem:
    """One item plus its cleaned comments -- the detector's input unit."""

    item: ItemRecord
    comments: list[CommentRecord]

    @property
    def item_id(self) -> int:
        """The underlying item id."""
        return self.item.item_id

    @property
    def sales_volume(self) -> int:
        """Listing sales volume (used by the detector's rule filter)."""
        return self.item.sales_volume

    @property
    def comment_texts(self) -> list[str]:
        """Raw comment strings for feature extraction."""
        return [comment.content for comment in self.comments]
