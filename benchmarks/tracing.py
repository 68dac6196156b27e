"""In-memory spans around the calls that netvar's CLI makes into each layer.

Nothing in ``src/`` is instrumented.  :func:`instrument` swaps the public
functions that ``netvar.cli`` (and the paper script) call for wrappers
that record a span, and restores the originals on exit.  Spans are
``(job, name, start, end, parent)`` tuples kept in a list; they are
written out once, when the benchmark ends.

The eigenvalue cache is filled in its own span just before
``validate_covariance``, so ``moments.eigenvalues`` is the eigensolve
and ``moments.validate_covariance`` is the bound checks alone.
"""

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [job, name, start, end, parent index or None]
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [self.job, name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, jobs) -> dict:
        """Per-name sum of self time (a span's duration minus its children's)
        over the spans of the given jobs."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        out = {}
        for s, t in zip(self.spans, own):
            if s[0] in jobs:
                out[s[1]] = out.get(s[1], 0.0) + t
        return out

    def covered(self, root_name: str, job) -> float:
        """Time covered by the direct children of the job's root span."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == job and s[1] == root_name}
        return sum(s[3] - s[2] for s in self.spans if s[4] in roots)

    def as_json(self) -> list:
        return [{"job": j, "name": n, "start": a, "end": b, "parent": p}
                for j, n, a, b, p in self.spans]


@contextmanager
def instrument(tracer: Tracer, captured: dict | None = None):
    """Route the CLI's calls into graphs, moments, variability, asymptotic,
    montecarlo and its own ``emit`` through spans; restore on exit.

    ``captured``, when given, receives the last covariance built by each
    input path ("samples" and "cov"), so the caller can compare them.
    """
    from netvar import asymptotic, cli, moments, montecarlo

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, value)

    estimate = tracer.wrap("moments.estimate_moments", cli.estimate_moments)
    validate = tracer.wrap("moments.validate_covariance", cli.validate_covariance)
    from_csv = tracer.wrap("moments.from_csv_text", moments.CovMatrix.from_csv_text.__func__)

    def estimate_and_capture(*args, **kwargs):
        est = estimate(*args, **kwargs)
        if captured is not None:
            captured["samples"] = est.sigma
        return est

    def from_csv_and_capture(cls, text):
        sigma = from_csv(cls, text)
        if captured is not None:
            captured["cov"] = sigma
        return sigma

    def validate_after_eigensolve(sigma, *args, **kwargs):
        with tracer.span("moments.eigenvalues"):
            sigma.eigenvalues
        return validate(sigma, *args, **kwargs)

    patch(cli, "parse_sample_set", tracer.wrap("graphs.parse_sample_set", cli.parse_sample_set))
    patch(cli, "estimate_moments", estimate_and_capture)
    patch(moments.CovMatrix, "from_csv_text", classmethod(from_csv_and_capture))
    patch(cli, "validate_covariance", validate_after_eigensolve)
    patch(cli, "describe", tracer.wrap("variability.describe", cli.describe))
    patch(cli, "classify_entropy",
          tracer.wrap("variability.classify_entropy", cli.classify_entropy))
    patch(cli, "emit", tracer.wrap("cli.emit", cli.emit))
    patch(montecarlo, "mc_pvalues", tracer.wrap("montecarlo.mc_pvalues", montecarlo.mc_pvalues))
    patch(montecarlo, "observed_statistic_exact",
          tracer.wrap("montecarlo.observed_statistic_exact",
                      montecarlo.observed_statistic_exact))
    methods = dict(asymptotic.METHODS)
    for name, fn in methods.items():
        asymptotic.METHODS[name] = tracer.wrap("asymptotic.tests", fn)
    try:
        yield
    finally:
        asymptotic.METHODS.update(methods)
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
