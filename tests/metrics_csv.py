"""Reader of the metrics.csv that training writes, for tests that check it."""


def read_metrics(path: str):
    """Parse a metrics CSV back into a list of dict rows (floats where possible)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = []
        for line in f:
            parts = line.rstrip("\n").split(",")
            row = {}
            for k, v in zip(header, parts):
                if k == "split":
                    row[k] = v
                elif v == "":
                    row[k] = None
                else:
                    row[k] = float(v)
            rows.append(row)
    return rows
