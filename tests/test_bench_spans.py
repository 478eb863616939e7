"""The traced benchmark finds every function it times.

``bench/spans.py`` times layers by rebinding ``trierank`` functions by name,
so a rename in ``src/`` silently drops a span. This runs every traced layer
once on the fixtures, in a fresh interpreter because ``install()`` rebinds
module attributes for good, and checks that each span name ``install()``
registers was recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json

import spans
import trierank as tr
import trierank.evaluate as tr_eval
from trierank.remote import RemoteBackend, serve_backend

registered = set()


class Recording(spans.Tracer):
    def wrap(self, name, fn, value=None):
        if isinstance(name, str):
            registered.add(name)
        else:  # names the backend call by its mask argument
            mask = tr.LogitMask(frozenset({0}))
            registered.update(name((None, None, m), {}) for m in (mask, None))
        return super().wrap(name, fn, value)


tracer = Recording()
spans.install(tracer)
tracer.enabled = True
vocab = tr.Vocabulary.load("fixtures/vocab.tsv")
backend = tr.mock_backend_from_spec("fixtures/mockspec.json", vocab)
prefix = tr.greedy_tokenize("y.", vocab)
_, pushed = tr.rank(backend, prefix, ["isEmpty", "size"], vocab)
_, split = tr.rank(backend, prefix, ["isEmpty", "isDone"], vocab)
tr.beam_all(backend, tr.build_tree(["isEmpty", "isDone"], vocab), prefix)
tr.beam_search(backend, prefix, vocab, 5)
tr.greedy_complete(backend, prefix, vocab)
tr_eval.evaluate(["treeranker"], tr.load_dataset("fixtures/smoke.jsonl"), backend, vocab)
server, url = serve_backend(backend)
try:
    tr.next_distribution(RemoteBackend(url), prefix)
finally:
    server.shutdown()
    server.server_close()
print(json.dumps({
    "registered": sorted(registered),
    "recorded": sorted({span[spans.NAME] for span in tracer.spans}),
    "pushes": pushed.pushes,
    "splits": split.splits,
}))
"""


def test_every_registered_span_is_recorded():
    paths = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["pushes"] == 1 and out["splits"] == 1
    registered = set(out["registered"])
    assert {"ranking.rank", "tree.split", "backend.masked", "remote.request"} <= registered
    assert registered - set(out["recorded"]) == set()
