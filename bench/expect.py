"""Expected answers of every workload; the correctness gate compares against
these.  Plain data, so a test can copy and tamper with it.

Triples are (v, k, lambda); scan entries are (line, q, triple) as
``ScanReport.survivors`` and ``.unresolved`` list them.
"""

SCAN_SURVIVORS = [
    (1, 2, (45, 12, 3)),
    (3, 2, (40, 27, 18)),
    (4, 2, (40, 27, 18)),
    (8, 2, (36, 15, 6)),
]

EXPECTED = {
    "scan-deep": {
        "range": (2, 12),
        "cases": 90,
        "survivors": SCAN_SURVIVORS,
        "unresolved": [(6, 4, (41600, 2448, 144))],
    },
    "scan-wide": {
        "range": (400, 1),
        "cases": 857,
        "survivors": SCAN_SURVIVORS,
        "unresolved": [(14, 3, (1296, 630, 306)), (15, 3, (162, 70, 30))],
    },
    # the CLI sieve command's range, read from its JSON report
    "cli-sieve": {
        "range": (13, 3),
        "survivors": SCAN_SURVIVORS,
        "unresolved": [
            (6, 4, (41600, 2448, 144)),
            (14, 3, (1296, 630, 306)),
            (15, 3, (162, 70, 30)),
        ],
    },
    # (kind, complemented) -> parameters found by verify_symmetric
    "params": {
        ("menon36", False): (36, 15, 6),
        ("menon36", True): (36, 21, 12),
        ("minus45", False): (45, 12, 3),
        ("minus45", True): (45, 33, 24),
        ("higman40", False): (40, 13, 4),
        ("higman40", True): (40, 27, 18),
        ("pg33", False): (40, 13, 4),
        ("pg33", True): (40, 27, 18),
    },
    "group_order": 51840,
    "primitive": True,
    "rank": {
        "menon36": [1, 15, 20],
        "minus45": [1, 12, 32],
        "higman40": [1, 12, 27],
    },
    # (kind, complemented) -> flag-transitive under the reflection group
    "flagtrans": {
        ("menon36", False): True,
        ("menon36", True): False,
        ("minus45", False): True,
        ("minus45", True): False,
        ("higman40", False): False,
        ("higman40", True): True,
    },
}
