import pytest

from trierank import MockBackend, Vocabulary, greedy_tokenize
from trierank.remote import RemoteBackend

WORKED_TOKENS = ["x", ".", "add", "All", "clear", "cl", "Al", "(", "ret"]


@pytest.fixture
def worked_vocab():
    return Vocabulary.from_texts(WORKED_TOKENS)


@pytest.fixture
def worked_backend(worked_vocab):
    """Table model behind the add/addAll/clear walkthrough.

    Each table sums to exactly 1.0 over the admissible set at its node, so
    constrained renormalization is the identity and the recorded trace values
    are bitwise 0.6 / 0.5 / 0.3.
    """
    t = worked_vocab.id
    return MockBackend(
        default={t("ret"): 1.0},
        contexts={
            (t("."),): {t("add"): 0.6, t("clear"): 0.3, t("cl"): 1.0 - (0.6 + 0.3)},
            (t("add"),): {t("All"): 0.5, t("("): 0.4, t("Al"): 0.1},
        },
    )


@pytest.fixture
def worked_prefix(worked_vocab):
    return greedy_tokenize("x.", worked_vocab)


@pytest.fixture
def worked_candidates():
    return ["add", "addAll", "clear"]


@pytest.fixture
def connect():
    """``connect(url)`` is a :class:`RemoteBackend` whose idle connections are
    closed when the test ends."""
    clients = []

    def connect(endpoint: str) -> RemoteBackend:
        clients.append(RemoteBackend(endpoint))
        return clients[-1]

    yield connect
    for client in clients:
        client.close()
