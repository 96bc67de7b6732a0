from __future__ import annotations

import http.server
import json
import math
import threading

import numpy as np
import pytest

from hmirisk.embed import (
    EmbeddingCache,
    EmbeddingTransportError,
    EmbeddingVector,
    LocalProvider,
    RemoteProvider,
    cosine_similarity,
    embed_text,
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


class _Handler(http.server.BaseHTTPRequestHandler):
    fail_next = 0
    last_auth = None

    def do_POST(self):
        _Handler.last_auth = self.headers.get("Authorization")
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if _Handler.fail_next > 0:
            _Handler.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
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


class TestRemoteProvider:
    def test_round_trip_and_batching(self, embed_server):
        provider = RemoteProvider(embed_server, "demo-model", max_batch=2)
        texts = ["a pump", "b pump", "c pump", "d pump", "e pump"]
        vectors = provider.embed_batch(texts)
        assert len(vectors) == 5
        assert provider.calls == 3  # ceil(5 / 2) requests

    def test_retry_then_success(self, embed_server):
        _Handler.fail_next = 2
        provider = RemoteProvider(embed_server, "demo-model", retries=3, backoff_s=0.01)
        vectors = provider.embed_batch(["pump"])
        assert len(vectors) == 1

    def test_unreachable_raises_transport_error(self):
        provider = RemoteProvider("http://127.0.0.1:9/none", "demo", timeout_ms=200, retries=1, backoff_s=0.01)
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


def test_name_similarity_helper():
    sim = name_similarity()
    assert sim("abc", "abc") == pytest.approx(1.0, abs=1e-9)
    assert sim("abc", "xyz") == 0.0
