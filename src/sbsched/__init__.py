"""ON/OFF scheduling of energy-harvesting small cells via online ski-rental policies.

Subpackages:
    network    -- node placement, channel gains, SINR/SNR, association, rates, delay
    energy     -- BS power model, Poisson harvesting, stored energy across periods
    pricing    -- per-second rent price and one-time buy price, per ON set
    schedulers -- DOA / ROA / adaptive / baseline OFF-time policies
    oracle     -- offline exhaustive search over OFF-time schedules
    engine     -- time-stepped period simulation and metrics
    analysis   -- empirical competitive-ratio study against the offline oracle
    cli        -- experiment configuration, orchestration, and output writing
"""

__version__ = "0.1.0"
