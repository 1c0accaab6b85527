"""End-to-end metric names and units (``BENCHMARK.json`` lists the same
names with their bounds; ``perfbench/tests`` checks the two agree)."""

END_TO_END = (
    ("setup_s", "s"),
    ("host_ms_per_op", "ms"),
    ("modeled_ops_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)
