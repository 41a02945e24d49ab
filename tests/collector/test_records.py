"""Tests for repro.collector.records."""

import dataclasses
import json

import pytest

from repro.collector.records import (
    CommentRecord,
    CrawledItem,
    ItemRecord,
    RecordParseError,
    ShopRecord,
)

SHOP_ROW = {"shop_id": "7", "shop_url": "https://x/7", "shop_name": "s"}
ITEM_ROW = {
    "item_id": "11",
    "shop_id": "7",
    "item_name": "thing",
    "price": "12.5",
    "sales_volume": "40",
}
COMMENT_ROW = {
    "item_id": "11",
    "comment_id": "100",
    "comment_content": "haoping!",
    "nickname": "a***b",
    "userExpValue": "250",
    "client_information": "web",
    "date": "2017-09-10 12:10:00",
}


class TestShopRecord:
    def test_parses_strings_to_types(self):
        record = ShopRecord.from_row(SHOP_ROW)
        assert record.shop_id == 7
        assert record.shop_url == "https://x/7"

    def test_missing_field(self):
        with pytest.raises(RecordParseError):
            ShopRecord.from_row({"shop_id": "7"})

    def test_bad_id(self):
        row = dict(SHOP_ROW, shop_id="seven")
        with pytest.raises(RecordParseError):
            ShopRecord.from_row(row)


class TestItemRecord:
    def test_parses(self):
        record = ItemRecord.from_row(ITEM_ROW)
        assert record.price == pytest.approx(12.5)
        assert record.sales_volume == 40

    def test_missing_price(self):
        row = {k: v for k, v in ITEM_ROW.items() if k != "price"}
        with pytest.raises(RecordParseError):
            ItemRecord.from_row(row)

    def test_empty_value_rejected(self):
        row = dict(ITEM_ROW, item_name="")
        with pytest.raises(RecordParseError):
            ItemRecord.from_row(row)


class TestCommentRecord:
    def test_parses_listing2_fields(self):
        record = CommentRecord.from_row(COMMENT_ROW)
        assert record.item_id == 11
        assert record.comment_id == 100
        assert record.user_exp_value == 250
        assert record.client == "web"

    def test_user_key_combines_nickname_and_expvalue(self):
        record = CommentRecord.from_row(COMMENT_ROW)
        assert record.user_key == ("a***b", 250)

    def test_to_json_roundtrip(self):
        record = CommentRecord.from_row(COMMENT_ROW)
        data = json.loads(record.to_json())
        assert data["content"] == "haoping!"
        assert data["comment_id"] == 100

    def test_to_dict_equals_asdict(self):
        record = CommentRecord.from_row(COMMENT_ROW)
        assert record.to_dict() == dataclasses.asdict(record)
        assert list(record.to_dict()) == [
            field.name for field in dataclasses.fields(CommentRecord)
        ]

    def test_missing_content(self):
        row = {k: v for k, v in COMMENT_ROW.items() if k != "comment_content"}
        with pytest.raises(RecordParseError):
            CommentRecord.from_row(row)


class TestCrawledItem:
    def test_properties(self):
        item = ItemRecord.from_row(ITEM_ROW)
        comment = CommentRecord.from_row(COMMENT_ROW)
        crawled = CrawledItem(item=item, comments=[comment])
        assert crawled.item_id == 11
        assert crawled.sales_volume == 40
        assert crawled.comment_texts == ["haoping!"]

    def test_empty_comments(self):
        crawled = CrawledItem(item=ItemRecord.from_row(ITEM_ROW), comments=[])
        assert crawled.comment_texts == []
