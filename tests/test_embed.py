from __future__ import annotations

import http.server
import json
import math
import re
import threading
import warnings

import numpy as np
import pytest

from hmirisk import embed
from hmirisk.cli import main
from hmirisk.embed import (
    EmbeddingCache,
    EmbeddingTransportError,
    EmbeddingVector,
    LocalProvider,
    RemoteProvider,
    cosine_similarity,
    embed_text,
    embed_texts,
    local_embed,
    name_similarity,
)


class TestCosine:
    def test_identical_vectors(self):
        v = local_embed("Main Pump Start")
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_unit_vectors(self):
        assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_hand_dot_product(self):
        s = 1.0 / math.sqrt(2.0)
        assert cosine_similarity((s, s), (1.0, 0.0)) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_symmetry_exact(self):
        u = local_embed("feedwater pump 11 speed")
        v = local_embed("feedwater pump 12 speed")
        assert cosine_similarity(u, v) == cosine_similarity(v, u)

    def test_bounded_for_normalized_inputs(self):
        texts = ["a", "ab", "abc", "reactor power", "0 ELEDW002", "excitation current"]
        for a in texts:
            for b in texts:
                assert abs(cosine_similarity(local_embed(a), local_embed(b))) <= 1.0 + 1e-12

    def test_dim_mismatch_and_zero_vector(self):
        with pytest.raises(ValueError):
            cosine_similarity((1.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            cosine_similarity((0.0, 0.0), (1.0, 0.0))


class TestLocalEmbed:
    def test_deterministic(self):
        assert local_embed("abc") == local_embed("abc")

    def test_unit_norm(self):
        for text in ("abc", "Main Pump Start", "2LBA10CP801C", "x"):
            vec = np.asarray(local_embed(text).values)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_disjoint_trigrams_orthogonal(self):
        assert cosine_similarity(local_embed("abc"), local_embed("xyz")) == 0.0

    def test_near_duplicate_ranks_above_unrelated(self):
        # trigram-overlap oracle: "Main Pump Sto*" shares most trigrams with
        # "Main Pump Start"; "Excitation Current" shares none
        base = local_embed("Main Pump Start")
        close = cosine_similarity(base, local_embed("Main Pump Stop"))
        far = cosine_similarity(base, local_embed("Excitation Current"))
        assert close > far

    def test_case_and_nfc_normalization(self):
        assert local_embed("Main Pump") == local_embed("main pump")
        assert local_embed("café") == local_embed("café")  # NFC fold

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            local_embed("   ")


class CountingProvider:
    """Local provider with a call counter, for cache verification."""

    provider_tag = "counting-local-v1"

    def __init__(self):
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += len(texts)
        return [list(local_embed(t).values) for t in texts]


class TestCache:
    def test_round_trip_across_instances(self, tmp_path):
        provider = CountingProvider()
        cache = EmbeddingCache(tmp_path)
        first = embed_text(provider, "Main Pump Start", cache)
        assert provider.calls == 1

        # fresh cache instance over the same directory = process restart
        provider2 = CountingProvider()
        cache2 = EmbeddingCache(tmp_path)
        second = embed_text(provider2, "Main Pump Start", cache2)
        assert provider2.calls == 0
        assert second == first

    def test_cache_on_equals_cache_off(self, tmp_path):
        provider = LocalProvider()
        cache = EmbeddingCache(tmp_path)
        texts = ["power factor", "terminal voltage", "0 ELEDW002"]
        without = [embed_text(provider, t) for t in texts]
        primed = [embed_text(provider, t, cache) for t in texts]
        served = [embed_text(provider, t, cache) for t in texts]
        assert without == primed == served

    def test_truncated_tail_tolerated(self, tmp_path):
        provider = LocalProvider()
        cache = EmbeddingCache(tmp_path)
        embed_text(provider, "alpha", cache)
        file = next(tmp_path.glob("*.embcache"))
        blob = file.read_bytes()
        file.write_bytes(blob + b"\x07\x00\x00\x00ab")  # interrupted append
        cache2 = EmbeddingCache(tmp_path)
        assert embed_text(provider, "alpha", cache2) == embed_text(provider, "alpha")

    @pytest.mark.parametrize("content", [b"NOPE\x01", b"HMEC\x02", b"HMEC"])
    def test_foreign_header_is_an_error_and_the_file_is_kept(self, tmp_path, content):
        provider = LocalProvider()
        file = tmp_path / f"{provider.provider_tag}.embcache"
        file.write_bytes(content)
        cache = EmbeddingCache(tmp_path)
        for _ in range(2):  # the error stays; nothing is appended meanwhile
            with pytest.raises(ValueError, match=f"^{re.escape(str(file))}: not an embedding cache file"):
                embed_text(provider, "alpha", cache)
        assert file.read_bytes() == content

    def test_a_batch_equals_one_text_at_a_time(self, tmp_path):
        """A batch gives each text's one-at-a-time bits, with the cache off,
        cold and warm, and asks the provider once per distinct text."""
        texts = ["power factor", "terminal voltage", " power factor", "0 ELEDW002"]
        one_by_one = [embed_text(CountingProvider(), t) for t in texts]
        provider, cache = CountingProvider(), EmbeddingCache(tmp_path)
        assert embed_texts(provider, texts) == one_by_one and provider.calls == 3
        assert embed_texts(provider, texts, cache) == one_by_one and provider.calls == 6
        assert embed_texts(provider, texts, EmbeddingCache(tmp_path)) == one_by_one and provider.calls == 6

    def test_empty_file_is_a_new_cache(self, tmp_path):
        file = tmp_path / f"{CountingProvider.provider_tag}.embcache"
        file.write_bytes(b"")
        first = embed_text(CountingProvider(), "alpha", EmbeddingCache(tmp_path))
        assert file.read_bytes().startswith(b"HMEC\x01")
        provider = CountingProvider()
        assert embed_text(provider, "alpha", EmbeddingCache(tmp_path)) == first and provider.calls == 0


class _Handler(http.server.BaseHTTPRequestHandler):
    fail_next = 0
    last_auth = None
    reply = None  # when set, the reply's vectors for n input texts, in place of local_embed's

    def do_POST(self):
        _Handler.last_auth = self.headers.get("Authorization")
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if _Handler.fail_next > 0:
            _Handler.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        if _Handler.reply is not None:
            vectors = _Handler.reply(len(body["input"]))
        else:
            vectors = [list(local_embed(t).values) for t in body["input"]]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()
    server.server_close()
    thread.join()


# Replies no embedding can come from: n input texts -> the reply's vectors,
# and the fault each one is reported as.
_BAD_REPLIES = {
    "nan": (lambda n: [[math.nan] * 3] * n, "vector 0 of the reply holds a non-finite value"),
    "infinity": (lambda n: [[1.0, math.inf, 0.0]] * n, "vector 0 of the reply holds a non-finite value"),
    "two lengths": (lambda n: [[1.0, 0.0, 0.0]] + [[1.0, 0.0, 0.0, 0.0]] * (n - 1), "vector 1 of the reply has 4 values, vector 0 has 3"),
    "zero": (lambda n: [[0.0] * 3] * n, "vector 0 of the reply has norm 0.0"),
    "empty": (lambda n: [[]] * n, "vector 0 of the reply has 0 values"),
    "norm overflow": (lambda n: [[1e308] * 3] * n, "vector 0 of the reply has norm inf"),
}


class TestRemoteProvider:
    @pytest.mark.parametrize(
        "reply, fault",
        [*_BAD_REPLIES.values(), (lambda n: [[1.0, 0.0, 0.0]] * (n + 1), "service returned 3 vectors for 2 inputs")],
        ids=[*_BAD_REPLIES, "one vector too many"],
    )
    def test_a_reply_that_is_no_embedding_is_a_transport_error(self, embed_server, tmp_path, monkeypatch, reply, fault):
        """Checked where it enters: no retry, and nothing reaches the cache."""
        monkeypatch.setattr(_Handler, "reply", reply)
        provider = RemoteProvider(embed_server, "demo-model")
        with pytest.raises(EmbeddingTransportError, match=f"^{re.escape(fault)}$"):
            embed_texts(provider, ["a pump", "b pump"], EmbeddingCache(tmp_path))
        assert provider.calls == 1 and not list(tmp_path.iterdir())

    def test_round_trip_and_batching(self, embed_server, monkeypatch):
        monkeypatch.setattr(embed, "MAX_BATCH", 2)
        provider = RemoteProvider(embed_server, "demo-model")
        texts = ["a pump", "b pump", "c pump", "d pump", "e pump"]
        vectors = provider.embed_batch(texts)
        assert len(vectors) == 5
        assert provider.calls == 3  # ceil(5 / 2) requests

    def test_retry_then_success(self, embed_server, monkeypatch):
        _Handler.fail_next = 2
        monkeypatch.setattr(embed, "RETRIES", 3)
        monkeypatch.setattr(embed, "BACKOFF_S", 0.01)
        provider = RemoteProvider(embed_server, "demo-model")
        vectors = provider.embed_batch(["pump"])
        assert len(vectors) == 1

    def test_unreachable_raises_transport_error(self, monkeypatch):
        monkeypatch.setattr(embed, "RETRIES", 1)
        monkeypatch.setattr(embed, "BACKOFF_S", 0.01)
        provider = RemoteProvider("http://127.0.0.1:9/none", "demo", timeout_ms=200)
        with pytest.raises(EmbeddingTransportError):
            provider.embed_batch(["pump"])

    def test_embed_text_normalizes_remote_vectors(self, embed_server):
        provider = RemoteProvider(embed_server, "demo-model")
        vec = embed_text(provider, "generator reactive power")
        assert isinstance(vec, EmbeddingVector)
        assert abs(np.linalg.norm(vec.values) - 1.0) < 1e-9
        assert vec.provider_tag == "remote-demo-model"

    def test_credential_sent_as_bearer(self, embed_server, monkeypatch):
        monkeypatch.setenv("HMIRISK_EMBED_API_KEY", "sekrit")
        RemoteProvider(embed_server, "demo-model").embed_batch(["pump"])
        assert _Handler.last_auth == "Bearer sekrit"

    def test_no_credential_no_header(self, embed_server, monkeypatch):
        monkeypatch.delenv("HMIRISK_EMBED_API_KEY", raising=False)
        RemoteProvider(embed_server, "demo-model").embed_batch(["pump"])
        assert _Handler.last_auth is None


def test_names_go_out_in_requests_of_max_batch(embed_server, tmp_path, monkeypatch):
    """name_similarity sends n distinct names, less those the cache holds,
    in ceil(n / MAX_BATCH) requests and sends nothing more when asked."""
    monkeypatch.setattr(embed, "MAX_BATCH", 2)
    names = ["a pump", "b pump", "c pump", "a pump", "d pump", "e pump"]
    provider = RemoteProvider(embed_server, "demo-model")
    sim = name_similarity(provider, EmbeddingCache(tmp_path), names)
    assert provider.calls == 3  # ceil(5 / 2)
    assert sim("a pump", "e pump") == name_similarity()("a pump", "e pump")
    assert provider.calls == 3
    fresh = RemoteProvider(embed_server, "demo-model")
    name_similarity(fresh, EmbeddingCache(tmp_path), [*names, "f pump", "g pump", "h pump"])
    assert fresh.calls == 2  # the cache holds five; ceil(3 / 2)


@pytest.mark.parametrize("reply, fault", _BAD_REPLIES.values(), ids=_BAD_REPLIES)
def test_metrics_on_a_reply_that_is_no_embedding_is_one_error_of_the_endpoint(
    embed_server, graph_file, sessions_dir, tmp_path, monkeypatch, capsys, reply, fault
):
    """One line naming embed.endpoint, exit 2, no warning and no cache file."""
    monkeypatch.setattr(_Handler, "reply", reply)
    config = tmp_path / "remote.json"
    cache = tmp_path / "cache"
    config.write_text(json.dumps({"embed": {"provider": "remote", "endpoint": embed_server, "cache_dir": str(cache)}}))
    argv = ["metrics", "--config", str(config), "--graph", str(graph_file), "--sessions", str(sessions_dir)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "metrics")]) == 2
    assert capsys.readouterr().err == f"error: embed.endpoint: {embed_server}: {fault}\n"
    assert not list(cache.glob("*.embcache"))


def test_name_similarity_helper():
    sim = name_similarity()
    assert sim("abc", "abc") == pytest.approx(1.0, abs=1e-9)
    assert sim("abc", "xyz") == 0.0
