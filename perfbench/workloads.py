"""The benchmark's workloads by name."""

import wl_annulus
import wl_cli
import wl_dual_scan
import wl_pointwise

WORKLOADS = {
    "annulus": wl_annulus,
    "pointwise": wl_pointwise,
    "dual-scan": wl_dual_scan,
    "cli": wl_cli,
}
