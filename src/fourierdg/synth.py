"""Deterministic multi-domain synthetic benchmark.

Every sensitive sample carries one shared signature direction while each
resistant sample picks one of several mechanism directions, on top of a
per-domain shift and isotropic noise.  This realizes the working
hypothesis behind the asymmetric clustering loss: one compact sensitive
mode, many scattered resistant modes.  Domain and label are not
confounded: every domain has the same sensitive fraction, and its shift
does not depend on the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GeneMatrix, SampleMeta
from .errors import ParameterError, check_field_types
from .tensor_core import RngState


@dataclass
class SynthConfig:
    domains: int = 6
    genes: int = 200
    per_domain: int = 100
    sensitive_fraction: float = 0.5
    mechanisms: int = 4
    signature_strength: float = 3.0
    mechanism_strength: float = 3.0
    domain_shift_strength: float = 2.0
    noise: float = 1.0
    seed: int = 0

    def validate(self):
        check_field_types(self)
        if self.domains < 2:
            raise ParameterError(f"domains must be >= 2, got {self.domains}")
        if self.mechanisms < 2:
            raise ParameterError(f"mechanisms must be >= 2, got {self.mechanisms}")
        if not (0.0 < self.sensitive_fraction < 1.0):
            raise ParameterError(
                f"sensitive_fraction must be in (0, 1), got {self.sensitive_fraction}"
            )
        if self.genes < 1 or self.per_domain < 1:
            raise ParameterError("genes and per_domain must be >= 1")
        for name in ("signature_strength", "mechanism_strength",
                     "domain_shift_strength", "noise"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")


def _unit(rng: RngState, n: int) -> np.ndarray:
    v = rng.normal((n,))
    return v / np.linalg.norm(v)


def generate(cfg: SynthConfig) -> tuple[GeneMatrix, list[SampleMeta]]:
    """Draw the benchmark; fully determined by cfg.seed.

    Per domain, exactly round(sensitive_fraction * per_domain) sensitive
    samples come first, then the resistant ones.  The emitted ic50 is a
    noisy monotone correlate of the label (sensitive low, resistant high),
    so labels can be re-derived from it.  Each domain's rows are written with whole-array operations into
    one preallocated matrix.
    """
    cfg.validate()
    rng = RngState(cfg.seed)
    signature = _unit(rng, cfg.genes)
    mechanisms = np.vstack([_unit(rng, cfg.genes) for _ in range(cfg.mechanisms)])
    shifts = np.vstack([_unit(rng, cfg.genes) for _ in range(cfg.domains)])

    n, n_sens = cfg.per_domain, int(round(cfg.sensitive_fraction * cfg.per_domain))
    values = np.empty((cfg.domains * n, cfg.genes))
    sign = np.where(np.arange(n) < n_sens, -1.0, 1.0)
    sample_ids: list[str] = []
    metas: list[SampleMeta] = []
    for m in range(cfg.domains):
        domain = f"D{m}"
        block = values[m * n:(m + 1) * n]
        noise = rng.normal((n, cfg.genes))
        mech_idx = rng.integers(0, cfg.mechanisms, (n - n_sens,))
        ic50 = sign + 0.5 * rng.normal((n,))
        base = cfg.domain_shift_strength * shifts[m]
        block[:n_sens] = base + cfg.signature_strength * signature
        block[n_sens:] = base + cfg.mechanism_strength * mechanisms[mech_idx]
        noise *= cfg.noise
        block += noise
        for i, value in enumerate(ic50.tolist()):
            sid = f"{domain}_s{i:03d}"
            sample_ids.append(sid)
            metas.append(SampleMeta(sid, domain, ic50=value, response=int(i < n_sens)))

    gene_names = [f"g{j:04d}" for j in range(cfg.genes)]
    gm = GeneMatrix(sample_ids, gene_names, values)
    return gm, metas
