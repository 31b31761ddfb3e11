"""RPR003 fixture — a stages.py-shaped module with fingerprint bugs.

Mirrors the structure of ``repro/experiments/stages.py``: ``stage_nodes``
declares each stage with a ``stage(name, deps, config_fields, build,
unpack)`` call naming its build/unpack functions.  Two deliberate
defects:

* ``_helper`` (named by ``_build_dataset``) reads ``config.image_size``,
  which the 'dataset' declaration does not declare — the stale-cache bug
  RPR003 exists to catch, reached transitively.
* the 'dataset' declaration declares ``unused_knob``, which nothing reads.

Never imported; parsed by the lint self-tests.
"""

from collections import namedtuple

Node = namedtuple("Node", "name kind deps payload build unpack")


def _helper(results):
    config = results.config
    return config.image_size  # VIOLATION: read but undeclared (transitive)


def _build_dataset(results):
    config = results.config
    size = _helper(results)
    key = results.config.cache_key()  # clean: method call, not a field read
    return {"size": size}, {"key": key, "scale": config.scale, "seed": config.seed}


def _unpack_dataset(results, arrays, meta):
    return arrays


def stage_nodes(config):
    def stage(name, deps, config_fields, build, unpack):
        payload = config.field_fingerprint(config_fields)
        return Node(name, f"stage_{name}", deps, payload, build, unpack)

    return [
        # VIOLATION (this call): declares 'unused_knob', which is never read.
        stage("dataset", (), ("scale", "seed", "unused_knob"), _build_dataset, _unpack_dataset),
    ]
