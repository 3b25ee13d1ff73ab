"""Single-shard simulation of the Wildfire HTAP engine (paper section 2).

Wildfire itself is IBM product-adjacent C++ and unavailable; this package
rebuilds the parts Umzi's behaviour depends on, faithfully:

* the **live zone**: transaction side-logs and the committed log;
* the **groomer**: merges committed transactions in time order, assigns
  monotonic hybrid ``beginTS`` values, emits columnar groomed blocks and
  builds index runs;
* the **post-groomer**: resolves ``prevRID`` / ``endTS`` through the index,
  repartitions data by the partition key into larger post-groomed blocks
  and publishes post-groom sequence numbers (PSNs);
* the **indexer daemon**: applies index evolve operations up to MaxPSN
  in PSN order, once per lifecycle cycle;
* **snapshot-isolation reads** by query timestamp, including time travel.

Everything runs against the simulated storage hierarchy.  The whole
lifecycle has one driver, ``WildfireShard.tick`` (groom, post-groom every
``post_groom_every`` cycles, evolve, merge): call it directly
(``WildfireShard.run_cycles``) or let one background thread per shard
loop it (``WildfireShard.start_daemons``).
"""

from repro.wildfire.schema import IndexSpec, TableSchema
from repro.wildfire.record import Record
from repro.wildfire.clock import HybridClock
from repro.wildfire.engine import ShardConfig, WildfireShard

__all__ = [
    "HybridClock",
    "IndexSpec",
    "Record",
    "ShardConfig",
    "TableSchema",
    "WildfireShard",
]
