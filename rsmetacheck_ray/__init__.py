"""rsmetacheck_ray — a Ray-Data-native web-text quality gate.

A from-scratch engine with the query/data-processing capabilities of
Anas-Elhounsri/RsMetaCheck (see /root/repo/SURVEY.md), recast per the
north rule as a document-level keep/drop + scrub pipeline over
Common-Crawl-style Parquet tables ``(url, warc_ts, html, text, lang)``.

Architecture (idiomatic Ray Data, NOT a port of the reference's
sequential file loop, ``detect_pitfalls_main.py:313``):

    work items (parquet row-group runs / fragments, planned on the
    driver) → [read → extract → langid → perplexity → rule catalog +
    scrub → write parquet], one fused Ray task per work item (a Ray
    Data read → gate → write stream where the footers do not bound
    the items) → lineage + metrics manifest

Nothing in this package calls ``ray.init()``/``ray.shutdown()`` — the
driver, ``bench.py`` and the pytest session fixture own the session.
"""

__version__ = "0.1.0"
