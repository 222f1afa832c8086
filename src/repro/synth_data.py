"""Synthetic event streams for the Cogra reproduction (paper Section 9.1).

The paper's real data sets (PAMAP2 physical-activity reports, EODData
stock ticks) are not available offline; these generators produce the same
schemas and the stream properties the experiments exercise (group counts,
type alternation, contiguity breaks). Substitutions are documented in
DESIGN.md. All generators return pandas DataFrames, are deterministic in
``seed`` and emit strictly increasing integer timestamps, so every
(group, window) substream is totally ordered (the paper's
stream-transaction requirement, Section 8).
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def activity_stream_pdf(
    *, n: int, n_persons: int = 14, n_activities: int = 18, seed: int = 10
) -> pd.DataFrame:
    """Physical-activity monitoring stream (PAMAP2-like, paper §9.1).

    Columns: time (s), person, activity, rate (heart rate), etype ("M").
    The heart rate is a per-person random walk that rises ~55% of steps,
    so contiguous increasing-rate trends (query q1) exist but break often.
    Activities switch occasionally; ids < n_activities/2 are "passive".
    """
    g = _rng(seed)
    person = g.integers(0, n_persons, n)
    activity = np.empty(n, dtype=np.int64)
    rate = np.empty(n, dtype=np.float64)
    cur_act = g.integers(0, n_activities, n_persons)
    cur_rate = g.uniform(60, 100, n_persons)
    switch = g.random(n) < 0.05
    step = np.where(g.random(n) < 0.55, 1.0, -1.0) * g.uniform(0.1, 3.0, n)
    new_act = g.integers(0, n_activities, n)
    for i in range(n):
        p = person[i]
        if switch[i]:
            cur_act[p] = new_act[i]
        cur_rate[p] = np.clip(cur_rate[p] + step[i], 40.0, 200.0)
        activity[i] = cur_act[p]
        rate[i] = cur_rate[p]
    return pd.DataFrame(
        {
            "time": np.arange(1, n + 1, dtype=np.int64),
            "person": person,
            "activity": activity,
            "rate": rate,
            "etype": np.repeat("M", n),
        }
    )


def stock_stream_pdf(
    *,
    n: int,
    n_companies: int = 19,
    n_sectors: int = 10,
    down_share: float = 0.5,
    seed: int = 11,
) -> pd.DataFrame:
    """Stock transaction stream (EODData-like, paper §9.1).

    Columns: time (s), company, sector, price, etype in {"D", "U"}
    (down-tick / up-tick records). Queries q3-style run Kleene patterns
    over D/U records per company; ``sector = company % n_sectors``.
    Prices are uniform on [0, 1) so the selectivity of price predicates on
    adjacent events is analytic (see :func:`selectivity_offset`).
    """
    g = _rng(seed)
    company = g.integers(0, n_companies, n)
    return pd.DataFrame(
        {
            "time": np.arange(1, n + 1, dtype=np.int64),
            "company": company,
            "sector": company % n_sectors,
            "price": g.random(n),
            "etype": np.where(g.random(n) < down_share, "D", "U"),
        }
    )


def transport_stream_pdf(
    *,
    n: int,
    n_passengers: int = 30,
    n_stations: int = 100,
    noise_share: float = 0.2,
    seed: int = 12,
) -> pd.DataFrame:
    """Public-transportation trips (paper's synthetic data set, §9.1).

    Per passenger, trips of the form Accept, (Call, Cancel)+, Finish with
    interleaved irrelevant events (InTransit, Dropoff) that
    skip-till-next-match skips (query q2). Columns: time (s), passenger,
    station, wait (s), etype.
    """
    g = _rng(seed)
    rows_t: list[int] = []
    rows_p: list[int] = []
    rows_e: list[str] = []
    # Per-passenger trip-phase state machine; one event per global tick.
    phase = np.zeros(n_passengers, dtype=np.int64)  # 0=Accept,1=Call,2=Cancel,3=maybe-Finish
    for t in range(1, n + 1):
        p = int(g.integers(0, n_passengers))
        if g.random() < noise_share:
            rows_t.append(t); rows_p.append(p)
            rows_e.append("InTransit" if g.random() < 0.5 else "Dropoff")
            continue
        ph = phase[p]
        if ph == 0:
            rows_e.append("Accept"); phase[p] = 1
        elif ph == 1:
            rows_e.append("Call"); phase[p] = 2
        elif ph == 2:
            rows_e.append("Cancel"); phase[p] = 3
        else:
            if g.random() < 0.5:
                rows_e.append("Call"); phase[p] = 2
            else:
                rows_e.append("Finish"); phase[p] = 0
        rows_t.append(t); rows_p.append(p)
    m = len(rows_t)
    return pd.DataFrame(
        {
            "time": np.asarray(rows_t, dtype=np.int64),
            "passenger": np.asarray(rows_p, dtype=np.int64),
            "station": g.integers(0, n_stations, m),
            "wait": g.uniform(0, 600, m),
            "etype": rows_e,
        }
    )


def selectivity_offset(s: float) -> float:
    """Offset c so that P(p1 < p2 + c) = s for independent uniform [0,1)
    prices p1, p2 — the selectivity knob of the Figure-9 experiment.

    The difference d = p1 - p2 is triangular on [-1, 1]:
    P(d < c) = (1+c)^2/2 for c <= 0 and 1 - (1-c)^2/2 for c >= 0.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("selectivity must be in (0, 1)")
    if s <= 0.5:
        return (2 * s) ** 0.5 - 1.0
    return 1.0 - (2 * (1 - s)) ** 0.5
