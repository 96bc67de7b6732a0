"""Name-similarity providers: remote embedding client, local fallback, cache.

Two providers share one contract: given text, return an L2-normalized
vector. The remote provider speaks a generic JSON-over-HTTP protocol
(request ``{"model": ..., "input": [texts]}``, response
``{"vectors": [[...]]}``). The local provider hashes character trigrams
into a fixed 256-dimension vector; it is deterministic across runs and
platforms and needs no network.

Vectors are quantized to float32 before the final normalization so that
cache hits, cache misses, and cache-disabled calls all return
byte-identical values.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
import time
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

LOCAL_DIM = 256
LOCAL_PROVIDER_TAG = "local-trigram-v1"
_HASH_PERSON = b"hmirisk-ngram-1"  # versioned; changing it changes every bucket
_CACHE_HEADER = b"HMEC\x01"  # 4-byte magic, 1-byte version

API_KEY_ENV = "HMIRISK_EMBED_API_KEY"
MAX_BATCH = 64  # texts per request
RETRIES = 3  # further attempts after a failed request
BACKOFF_S = 0.5  # wait before retry n (from 0): BACKOFF_S * 2**n


class EmbeddingTransportError(RuntimeError):
    """Remote embedding service unreachable, timed out, or replied garbage."""


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]
    provider_tag: str


def _normalize_text(text: str) -> str:
    normalized = unicodedata.normalize("NFC", text).strip()
    if not normalized:
        raise ValueError("text is empty after trimming")
    return normalized


def _finalize(raw: Sequence[float], provider_tag: str) -> EmbeddingVector:
    """Quantize to float32, then renormalize in float64."""
    arr = np.asarray(raw, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("embedding has zero norm")
    quantized = (arr / norm).astype(np.float32).astype(np.float64)
    quantized /= np.linalg.norm(quantized)
    return EmbeddingVector(tuple(quantized.tolist()), provider_tag)


def cosine_similarity(u, v) -> float:
    """dot(u, v) / (|u| |v|); symmetric, raises on dim mismatch or zero norm."""
    a = np.asarray(u.values if isinstance(u, EmbeddingVector) else u, dtype=np.float64)
    b = np.asarray(v.values if isinstance(v, EmbeddingVector) else v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def _trigram_bucket(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
    return int.from_bytes(digest, "little") % LOCAL_DIM


def local_embed(text: str) -> EmbeddingVector:
    """Deterministic trigram-hash embedding of the lowercased NFC text."""
    normalized = _normalize_text(text).lower()
    grams = [normalized[i : i + 3] for i in range(len(normalized) - 2)] or [normalized]
    vec = np.zeros(LOCAL_DIM, dtype=np.float64)
    for gram, count in Counter(grams).items():
        vec[_trigram_bucket(gram)] += count
    return _finalize(vec, LOCAL_PROVIDER_TAG)


class Provider(Protocol):
    provider_tag: str

    def embed_batch(self, texts: Sequence[str]) -> list[Sequence[float]]: ...


class LocalProvider:
    """Wraps :func:`local_embed` in the provider interface."""

    provider_tag = LOCAL_PROVIDER_TAG

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:  # arrays: no float object per value
        return [np.asarray(local_embed(t).values) for t in texts]


class RemoteProvider:
    """Generic JSON-over-HTTP embedding client with retries and batching."""

    def __init__(self, endpoint: str, model: str, timeout_ms: int = 10_000):
        self.endpoint = endpoint
        self.model = model
        self.timeout_s = timeout_ms / 1000.0
        self.provider_tag = f"remote-{model}"
        self.calls = 0  # requests actually sent, for cache verification

    def _post(self, texts: Sequence[str]) -> list[list[float]]:
        import urllib.error, urllib.request  # here, not at the top: they load ssl, http.client and email
        payload = json.dumps({"model": self.model, "input": list(texts)}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        request = urllib.request.Request(self.endpoint, data=payload, headers=headers)
        last_error: Exception | None = None
        for attempt in range(RETRIES + 1):
            try:
                self.calls += 1
                with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                    body = json.loads(response.read().decode("utf-8"))
                vectors = body["vectors"]
                if len(vectors) != len(texts):
                    raise EmbeddingTransportError(
                        f"service returned {len(vectors)} vectors for {len(texts)} inputs"
                    )
                return [[float(x) for x in vec] for vec in vectors]
            except (urllib.error.URLError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an HTTP error status carries the open response
                last_error = exc
                if attempt < RETRIES:
                    time.sleep(BACKOFF_S * (2**attempt))
        raise EmbeddingTransportError(f"embedding request failed after {RETRIES + 1} attempts: {last_error}")

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        out: list[list[float]] = []
        for start in range(0, len(texts), MAX_BATCH):
            out.extend(self._post(texts[start : start + MAX_BATCH]))
        return out


class EmbeddingCache:
    """Append-only per-provider cache of float32 vectors.

    File layout: 4-byte magic, 1-byte version, then records of
    ``uint32 length | 32-byte sha256 key | uint32 dim | dim * float32``.
    A non-empty file with any other header is an error naming the file.
    A record that runs past the end of the file is an interrupted append
    and is ignored; a complete record whose length is not ``36 + 4 * dim``
    is an error naming the file and the record's byte offset. Appends are
    not synchronized, so one process at a time should write a cache
    directory.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._mem: dict[tuple[str, bytes], np.ndarray] = {}
        self._loaded: set[str] = set()

    def _file_for(self, provider_tag: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in provider_tag)
        return self.cache_dir / f"{safe}.embcache"

    def _load(self, provider_tag: str) -> None:
        if provider_tag in self._loaded:
            return
        path = self._file_for(provider_tag)
        blob = path.read_bytes() if path.exists() else b""
        if blob and not blob.startswith(_CACHE_HEADER):  # an empty file is a new cache
            raise ValueError(f"{path}: not an embedding cache file: header {blob[:5]!r}, expected {_CACHE_HEADER!r}")
        offset = len(_CACHE_HEADER)
        while offset + 4 <= len(blob):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            if offset + length > len(blob):
                break  # truncated tail from an interrupted append
            if length < 36 or length != 36 + 4 * struct.unpack_from("<I", blob, offset + 32)[0]:
                raise ValueError(f"{path}: cache record at byte {offset - 4}: length {length} does not fit its header")
            key = blob[offset : offset + 32]
            values = np.frombuffer(blob, dtype="<f4", count=(length - 36) // 4, offset=offset + 36)
            self._mem[(provider_tag, bytes(key))] = values.copy()
            offset += length
        self._loaded.add(provider_tag)

    def get(self, provider_tag: str, key: bytes) -> np.ndarray | None:
        self._load(provider_tag)
        return self._mem.get((provider_tag, key))

    def put(self, provider_tag: str, key: bytes, values: np.ndarray) -> None:
        as_f32 = np.asarray(values, dtype="<f4")
        record = key + struct.pack("<I", as_f32.size) + as_f32.tobytes()
        self._load(provider_tag)
        self._mem[(provider_tag, key)] = as_f32.astype(np.float32)
        with open(self._file_for(provider_tag), "ab") as fh:
            if fh.tell() == 0:
                fh.write(_CACHE_HEADER)
            fh.write(struct.pack("<I", len(record)) + record)


def embed_texts(provider: Provider, texts: Sequence[str], cache: EmbeddingCache | None = None) -> list[EmbeddingVector]:
    """Embed ``texts`` through ``provider``, consulting the cache first; the
    distinct misses go out in one ``embed_batch`` call. Identical
    (provider_tag, text) pairs return byte-identical vectors whether served
    fresh, from memory, or from a cache file written by an earlier process."""
    tag = provider.provider_tag
    normalized = [_normalize_text(text) for text in texts]
    keys = [hashlib.sha256(text.encode("utf-8")).digest() for text in normalized]
    hits = {key: cache.get(tag, key) for key in keys} if cache is not None else {}
    vectors = {key: _finalize(hit, tag) for key, hit in hits.items() if hit is not None}
    misses = {key: text for key, text in zip(keys, normalized) if key not in vectors}
    for key, raw in zip(misses, provider.embed_batch(list(misses.values())) if misses else ()):
        vectors[key] = _finalize(raw, tag)
        if cache is not None:
            cache.put(tag, key, np.asarray(vectors[key].values))
    return [vectors[key] for key in keys]


def embed_text(provider: Provider, text: str, cache: EmbeddingCache | None = None) -> EmbeddingVector:
    """Embed one text; see :func:`embed_texts`."""
    return embed_texts(provider, [text], cache)[0]


def name_similarity(provider: Provider | None = None, cache: EmbeddingCache | None = None,
                    names: Sequence[str] = ()) -> Callable[[str, str], float]:
    """Build a (name, name) -> cosine similarity function for the metrics
    layer; ``names`` are embedded up front, any other name on first use."""
    active = provider if provider is not None else LocalProvider()
    memo = dict(zip(names, embed_texts(active, names, cache)))

    def sim(a: str, b: str) -> float:
        for text in (a, b):
            if text not in memo:
                memo[text] = embed_text(active, text, cache)
        return cosine_similarity(memo[a], memo[b])

    return sim
