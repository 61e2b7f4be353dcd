"""Pass/fail report values shared by the structural check operations."""

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one structural identity check."""

    lemma: str
    n: int
    k: int | None
    passed: bool
    counterexample: str | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"lemma": self.lemma, "n": self.n, "k": self.k, "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.details:
            out["details"] = self.details
        return out

    def __bool__(self):
        return self.passed


def first_failure(reports):
    return next((r for r in reports if not r.passed), None)
