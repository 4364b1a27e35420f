"""Fractional-order PID controller tuning and verification toolkit.

Tunes PI^lambda-D^delta controllers (kp + ti*s^-lambda + td*s^delta) by
forcing a chosen dominant closed-loop pole pair to satisfy the
characteristic equation, minimizing the resulting residual with a bounded
particle swarm optimizer, and verifying designs through Grunwald-Letnikov
time-domain step simulation and response metrics.

Import each name from its submodule (fopid.tuning, fopid.plant, ...); the
package itself holds only the version that manifest.json records.
"""

__version__ = "0.1.0"
