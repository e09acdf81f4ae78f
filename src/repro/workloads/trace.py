"""A canonical digest of a service-request workload.

:func:`trace_digest` is a SHA-256 over the canonical serialization of a
:class:`~repro.workloads.services.ServiceRequestSpec` list (id, template,
arrival, deadline, stages as ``[src, dst, size_bytes]`` triples), one record
per request in arrival order.  Canonical means sorted keys and no
whitespace, so the digest depends only on the specs: the ``rpc_deadline`` and
``coflow_ct`` rows print it, and it is equal across protocols at one seed and
load because the synthesized workload is.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Sequence

from repro.workloads.services import ServiceRequestSpec

__all__ = [
    "request_to_record",
    "trace_digest",
]


def request_to_record(spec: ServiceRequestSpec) -> Dict[str, object]:
    """The canonical JSON-codable record of one request spec."""
    record: Dict[str, object] = {
        "id": spec.request_id,
        "template": spec.template,
        "arrival_ps": spec.arrival_ps,
        "stages": [
            [[task.src, task.dst, task.size_bytes] for task in stage]
            for stage in spec.stages
        ],
    }
    if spec.deadline_ps is not None:
        record["deadline_ps"] = spec.deadline_ps
    return record


def _canonical_line(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_digest(specs: Sequence[ServiceRequestSpec]) -> str:
    """SHA-256 over the canonical request records.

    Depends only on the specs — two identical workloads have equal digests
    however their spec lists were built.
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(_canonical_line(request_to_record(spec)).encode())
        digest.update(b"\n")
    return digest.hexdigest()
