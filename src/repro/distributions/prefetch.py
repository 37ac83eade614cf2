"""Block-prefetched sampling: amortize the numpy Generator crossing.

Every simulated task costs at least two random draws (an inter-arrival
gap and a service demand).  Drawing them one at a time through
``Distribution.sample`` pays a full Python -> numpy crossing per draw
(~1 µs); drawing 4096 at once through ``sample_many`` costs barely more
than one crossing.  :class:`PrefetchSampler` wraps a ``(distribution,
rng)`` pair and serves single draws out of such a block, refilled on
exhaustion.

**Draw-order contract.** A sampler serves the values that repeated
``distribution.sample(rng)`` calls would have produced, in the same
order, consuming the generator *bit-identically* — a seeded run visits
exactly the same underlying uniforms whether prefetching is on or off.
This relies on ``Distribution.prefetch_safe``: a distribution may
declare itself safe only if ``sample_many(rng, n)`` consumes the
generator identically to ``n`` successive ``sample(rng)`` calls (numpy's
array-filling draws satisfy this for single-method samplers; see
``tests/test_prefetch.py`` which pins the property per distribution).
The *transformed* values agree exactly for arithmetic-only transforms
(exponential, uniform, ...) and to within 1-2 ulp for pow/log-based
ones, where numpy's vectorized SIMD kernels round differently from the
scalar libm path — so A/B comparisons of output *estimates* are exact
at the RNG level and float-tolerance at the value level.
Unsafe distributions (e.g. :class:`~repro.distributions.Mixture`, whose
vectorized path draws a multinomial then shuffles) are transparently
served per-draw instead — correctness never depends on the flag being
set, only the speedup does.
"""

from __future__ import annotations

from operator import length_hint

import numpy as np

from repro.distributions.base import Distribution, DistributionError

#: Default draws fetched per block.  Big enough to amortize the numpy
#: crossing to noise, small enough to keep per-stream memory trivial.
DEFAULT_BLOCK = 4096


class PrefetchContractError(DistributionError):
    """A distribution's ``sample_many`` broke the draw-order contract.

    Raised by a verifying :class:`PrefetchSampler` when a block draw
    consumed the generator differently (or produced different values)
    than the same number of per-draw ``sample`` calls would have — i.e.
    the distribution's ``prefetch_safe = True`` declaration is wrong.
    """


class PrefetchSampler:
    """Serve single draws from vectorized blocks of a distribution.

    Parameters
    ----------
    distribution:
        Any :class:`Distribution`.
    rng:
        The stream consumed; never shared with another sampler unless
        draws are strictly sequential between them.
    block_size:
        Draws per refill.  ``1`` disables prefetching (every call is a
        plain ``sample``), which is the A/B "off" configuration.
    probe:
        Optional :class:`~repro.analysis.sanitizer.DeterminismProbe`;
        when set, each refill records its block size so the sanitizer
        can pin RNG block boundaries, and is first replayed per-draw
        from a clone of the generator state: it must consume the
        generator bit-identically and reproduce the same values (within
        float tolerance for pow/log-based transforms), else
        :class:`PrefetchContractError` is raised.  This is the runtime
        check behind ``Experiment(..., sanitize=True)``; it multiplies
        the sampling cost and is meant for verification runs only.
    """

    __slots__ = ("distribution", "rng", "block_size", "it", "_vectorized",
                 "probe")

    #: Relative tolerance for the verified-block value comparison: numpy's
    #: vectorized SIMD kernels may round pow/log transforms 1-2 ulp
    #: differently from the scalar path (see module docstring); real
    #: contract violations produce entirely different draws.
    VERIFY_RTOL = 1e-9

    def __init__(
        self,
        distribution: Distribution,
        rng: np.random.Generator,
        block_size: int = DEFAULT_BLOCK,
        probe=None,
    ):
        if block_size < 1:
            raise DistributionError(f"block_size must be >= 1, got {block_size}")
        self.distribution = distribution
        self.rng = rng
        self.block_size = int(block_size)
        self.probe = probe
        self._vectorized = (
            block_size > 1 and getattr(distribution, "prefetch_safe", False)
        )
        # The buffered block, held as a list-iterator: ``next(it, None)``
        # serves a draw entirely at C level (no index bookkeeping), and
        # the block is converted via ``.tolist()`` so draws come out as
        # Python floats, which downstream clock arithmetic handles faster
        # than numpy scalars.  Hot call sites may inline the fast path:
        # ``v = next(sampler.it, None); v = sampler.refill() if v is None
        # else v`` (the None test, not truthiness — 0.0 is a valid draw).
        self.it = iter(())

    def __call__(self) -> float:
        """One draw, refilling the block when exhausted."""
        value = next(self.it, None)
        if value is not None:
            return value
        return self.refill()

    def refill(self) -> float:
        """Fetch the next block and return its first draw.

        For non-vectorizable distributions this is a single plain
        ``sample`` — the iterator stays exhausted, so every call lands
        here, which *is* the per-draw fallback path.
        """
        if not self._vectorized:
            return float(self.distribution.sample(self.rng))
        if self.probe is None:
            block = self.distribution.sample_many(
                self.rng, self.block_size
            ).tolist()
        else:
            block = self._verified_block().tolist()
            self.probe.record_block(self.block_size)
        self.it = it = iter(block)
        return next(it)

    def _verified_block(self) -> np.ndarray:
        """Draw one block while cross-checking the prefetch contract.

        The generator state is snapshotted, the block is drawn through
        ``sample_many``, then the same draws are replayed one at a time
        through ``sample`` on a clone started from the snapshot.  Both
        the final generator state (bit-identical consumption) and the
        values must agree.
        """
        rng = self.rng
        before = rng.bit_generator.state
        block = np.asarray(
            self.distribution.sample_many(rng, self.block_size), dtype=float
        )
        replay_bits = type(rng.bit_generator)()
        replay_bits.state = before
        replay = np.random.Generator(replay_bits)
        sample = self.distribution.sample
        singles = np.array(
            [sample(replay) for _ in range(self.block_size)], dtype=float
        )
        if replay_bits.state != rng.bit_generator.state:
            raise PrefetchContractError(
                f"{type(self.distribution).__name__}.sample_many consumed "
                f"the generator differently than {self.block_size} "
                "successive sample() calls; its prefetch_safe=True "
                "declaration is wrong (set prefetch_safe = False or fix "
                "the draw order)"
            )
        if not np.allclose(block, singles, rtol=self.VERIFY_RTOL, atol=0.0):
            worst = int(np.argmax(np.abs(block - singles)))
            raise PrefetchContractError(
                f"{type(self.distribution).__name__}.sample_many produced "
                f"different values than per-draw sampling (first diverging "
                f"draw #{worst}: {block[worst]!r} vs {singles[worst]!r}); "
                "its prefetch_safe=True declaration is wrong"
            )
        return block

    #: Alias so call sites can read naturally.
    def sample(self) -> float:
        """Same as calling the sampler."""
        return self()

    def take(self, n: int) -> np.ndarray:
        """``n`` draws as an array, continuing the same stream.

        Any draws left in the current block are served first (preserving
        the draw-order contract), then the remainder comes from one bulk
        ``sample_many``.
        """
        if n < 0:
            raise DistributionError(f"cannot draw a negative count: {n}")
        buffered = list(self.it)
        if len(buffered) >= n:
            self.it = iter(buffered[n:])
            return np.asarray(buffered[:n], dtype=float)
        missing = n - len(buffered)
        if not self._vectorized:
            # Per-draw on purpose: this sampler is in verify mode, and
            # the scalar loop IS the draw-order reference being checked.
            fresh = [float(self.distribution.sample(self.rng))  # simlint: disable=scalar-sample-loop
                     for _ in range(missing)]
            return np.asarray(buffered + fresh, dtype=float)
        fresh = self.distribution.sample_many(self.rng, missing)
        if buffered:
            return np.concatenate([np.asarray(buffered, dtype=float), fresh])
        return np.asarray(fresh, dtype=float)

    @property
    def pending(self) -> int:
        """Draws currently buffered (diagnostic)."""
        return length_hint(self.it)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "vectorized" if self._vectorized else "per-draw"
        return (
            f"PrefetchSampler({self.distribution!r}, block={self.block_size}, "
            f"{mode}, pending={self.pending})"
        )
