"""End-to-end walkthrough: plant a correlated system, freeze a backbone
trained on a clean realisation, then adapt to a noisy deployment with a
few-shot window budget.

Run from the repository root:

    python3 demos/quickstart.py

Writes the training metrics CSV under demos/out/ and prints the frozen
vs adapted test errors.
"""

import os

from chancorr.train import (backbone_mse_mae, few_shot_protocol,
                            few_shot_scenario, fit, write_text_atomic)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def main():
    print("building the dynamic-regime scenario (seed 0) ...")
    backbone, train, val, test = few_shot_scenario("dynamic", seed=0)
    print(f"  few-shot train windows: {len(train)}, "
          f"val: {len(val)}, test: {len(test)}")

    frozen_mse, frozen_mae = backbone_mse_mae(backbone, test)
    print(f"  frozen backbone   test MSE {frozen_mse:.4f}  MAE {frozen_mae:.4f}")

    print("fitting the adapter (25 epochs) ...")
    _, report = fit(few_shot_protocol(seed=0), train, val, backbone,
                    test=test)
    gain = 1.0 - report.test_mse / frozen_mse
    print(f"  adapted forecasts test MSE {report.test_mse:.4f}  "
          f"MAE {report.test_mae:.4f}  ({gain:+.1%} MSE vs frozen)")
    print(f"  adapter parameters: {report.adapter_params} "
          f"(backbone: {report.backbone_params})")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "quickstart_metrics.csv")
    write_text_atomic(path, report.to_csv())
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
