//! Differential proof that the ARIMA and ETS streams serve the bits of
//! the stateless predict path they replaced.
//!
//! For every Table I series and every ARIMA/ETS configuration of
//! [`standard_pool`] (plus ARIMA(1,2,1) and ARIMA(0,1,2), which cover the
//! orders the pool leaves out), the model is fitted on a prefix and then, at every
//! prefix length of the series — from the empty history, through the
//! ARIMA fallback thresholds and the Holt–Winters degrade-to-Holt region
//! below `2·period` values, to well past the fit length — three forecasts
//! must agree bitwise:
//!
//! 1. the oracle: the pre-stream `predict_next`, kept verbatim under
//!    `arima::oracle` / `ets::oracle`;
//! 2. `predict_next(&h[..t])`, which feeds a fresh stream;
//! 3. one long-lived stream fed `h` value by value.

use crate::arima::Arima;
use crate::ets::{Ets, EtsKind};
use crate::forecaster::{ForecastStream, Forecaster};
use crate::pool::standard_pool;
use eadrl_datasets::{generate, DatasetId};

const LEN: usize = 420;
const FIT_LEN: usize = 300;

/// The ARIMA and ETS members of `standard_pool(_, season, _)`, as
/// concrete types so their oracles can be called.
fn configurations(season: usize) -> (Vec<Arima>, Vec<Ets>) {
    let arima = vec![
        Arima::new(1, 0, 0),
        Arima::new(2, 0, 1),
        Arima::new(1, 1, 1),
        Arima::new(2, 1, 2),
        Arima::new(5, 0, 0),
    ];
    let ets = vec![
        Ets::new(EtsKind::Simple),
        Ets::new(EtsKind::Holt),
        Ets::new(EtsKind::HoltWinters { period: season }),
    ];
    (arima, ets)
}

/// Asserts the three paths agree at every prefix of `series`; `stream`
/// is a fresh stream of `model`.
fn assert_streams_match(
    model: &dyn Forecaster,
    mut stream: Box<dyn ForecastStream>,
    oracle: impl Fn(&[f64]) -> f64,
    series: &[f64],
    context: &str,
) {
    for t in 0..=series.len() {
        let h = &series[..t];
        let want = oracle(h).to_bits();
        assert_eq!(
            model.predict_next(h).to_bits(),
            want,
            "{context} {}: predict_next differs at prefix {t}",
            model.name()
        );
        assert_eq!(
            stream.forecast().to_bits(),
            want,
            "{context} {}: stream differs at prefix {t}",
            model.name()
        );
        if let Some(&y) = series.get(t) {
            stream.push(y);
        }
    }
}

#[test]
fn configurations_are_the_standard_pool_members() {
    for season in [7, 24, 48, 144] {
        let (arima, ets) = configurations(season);
        let ours: Vec<&str> = arima
            .iter()
            .map(|m| m.name())
            .chain(ets.iter().map(|m| m.name()))
            .collect();
        let pool = standard_pool(5, season, 0);
        let theirs: Vec<&str> = pool
            .iter()
            .map(|m| m.name())
            .filter(|n| n.starts_with("ARIMA") || n.starts_with("ETS"))
            .collect();
        assert_eq!(ours, theirs, "season {season}");
    }
}

#[test]
fn streams_match_the_stateless_oracle_on_every_table_i_series() {
    for id in DatasetId::all() {
        let ts = generate(id, LEN, 17);
        let season = ts.frequency().default_season();
        let series = ts.values();
        let (mut arima, mut ets) = configurations(season);
        // Orders the pool does not use: a second integration level, and
        // no AR part at all.
        arima.extend([Arima::new(1, 2, 1), Arima::new(0, 1, 2)]);
        for model in &mut arima {
            model
                .fit(&series[..FIT_LEN])
                .expect("ARIMA fits 300 points");
            assert_streams_match(
                model,
                model.stream().expect("a stream"),
                |h| model.oracle_predict_next(h),
                series,
                ts.name(),
            );
        }
        for model in &mut ets {
            model.fit(&series[..FIT_LEN]).expect("ETS fits 300 points");
            assert_streams_match(
                model,
                model.stream().expect("a stream"),
                |h| model.oracle_predict_next(h),
                series,
                ts.name(),
            );
        }
    }
}

#[test]
fn unfitted_streams_fall_back_like_the_oracle() {
    let series = generate(DatasetId::BikeHumidity, 60, 3).values().to_vec();
    let (arima, ets) = configurations(24);
    for model in &arima {
        assert_streams_match(
            model,
            model.stream().expect("a stream"),
            |h| model.oracle_predict_next(h),
            &series,
            "unfitted",
        );
    }
    for model in &ets {
        assert_streams_match(
            model,
            model.stream().expect("a stream"),
            |h| model.oracle_predict_next(h),
            &series,
            "unfitted",
        );
    }
}
