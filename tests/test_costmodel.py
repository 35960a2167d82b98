"""Analyzer tables: a cell that does not parse is a ParameterError naming the
file and the line, never a bare ValueError."""

import re

import pytest

from crossdock import costmodel
from crossdock.errors import ParameterError

CATALOG_HEADER = "name\tcpu_model\tcores\tdp_peak_gflops\tgpus\tram_gb\trdma\tprice_usd_per_hour"
RUNS_HEADER = "instance\tn_instances\twall_time_s\tn_pairs"


@pytest.mark.parametrize("load, header, good, bad", [
    (costmodel.load_catalog, CATALOG_HEADER,
     "H16\tXeon\t16\t691.2\t0\t112\tno\t1.75", "NC24\tXeon\tx\t883.2\t4\t1440\tno\t4.32"),
    (costmodel.load_runs, RUNS_HEADER, "H16\t50\t600.0\t3481", "H16\tx\t300.0\t3481"),
])
def test_unparsable_cell_names_the_file_and_the_line(tmp_path, load, header, good, bad):
    path = tmp_path / "table.tsv"
    path.write_text(f"# comment\n{header}\n{good}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))} line 5: .*'x'"):
        load(path)
    path.write_text(f"{header}\n{good}\n", encoding="utf-8")
    assert len(load(path)) == 1
