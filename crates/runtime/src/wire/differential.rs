//! The decide decoders against the `Json`-tree decoders they replaced.
//!
//! [`decode_decide_request_into`] and [`decode_decide_response`] walk the
//! bytes without building a [`Json`] value.  The references here parse the
//! whole body with [`Json::parse`] and then walk the tree, as the decoders
//! did before.  Each test asserts that both sides return an identical
//! `Result` on its inputs: the same states and decisions bit for bit, and
//! the same [`WireError`], offsets and schema text included.

use super::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference request decoder: parse to a tree, then walk it.
fn dom_request(body: &[u8], max_batch: usize) -> Result<(Vec<Vec<f64>>, bool), WireError> {
    let json = Json::parse(body)?;
    match (json.get("state"), json.get("states")) {
        (Some(_), Some(_)) => Err(WireError::Schema(
            "provide either \"state\" or \"states\", not both".to_string(),
        )),
        (Some(value), None) => Ok((vec![number_vec(value, "state")?], false)),
        (None, Some(value)) => {
            let Json::Arr(rows) = value else {
                return Err(WireError::Schema(
                    "\"states\" must be an array of state vectors".to_string(),
                ));
            };
            if rows.len() > max_batch {
                return Err(WireError::BatchTooLarge {
                    len: rows.len(),
                    max: max_batch,
                });
            }
            let states = rows
                .iter()
                .map(|row| number_vec(row, "states[i]"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((states, true))
        }
        (None, None) => Err(WireError::Schema(
            "body must contain \"state\" or \"states\"".to_string(),
        )),
    }
}

/// The reference response decoder: parse to a tree, then walk it.
fn dom_response(body: &[u8]) -> Result<Vec<ShieldDecision>, WireError> {
    let json = Json::parse(body)?;
    let Some(Json::Arr(rows)) = json.get("decisions") else {
        return Err(WireError::Schema(
            "response has no \"decisions\" array".to_string(),
        ));
    };
    rows.iter()
        .map(|row| {
            let action = number_vec(
                row.get("action")
                    .ok_or_else(|| WireError::Schema("decision without \"action\"".to_string()))?,
                "action",
            )?;
            let intervened = match row.get("intervened") {
                Some(Json::Bool(b)) => *b,
                _ => {
                    return Err(WireError::Schema(
                        "decision without boolean \"intervened\"".to_string(),
                    ))
                }
            };
            Ok(ShieldDecision { action, intervened })
        })
        .collect()
}

fn number_vec(value: &Json, field: &str) -> Result<Vec<f64>, WireError> {
    let Json::Arr(items) = value else {
        return Err(WireError::Schema(format!(
            "\"{field}\" must be an array of numbers"
        )));
    };
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| WireError::Schema(format!("\"{field}\" must contain only numbers")))
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn row_bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter().map(|row| bits(row)).collect()
}

fn decision_bits(decisions: Vec<ShieldDecision>) -> Vec<(Vec<u64>, bool)> {
    decisions
        .iter()
        .map(|d| (bits(&d.action), d.intervened))
        .collect()
}

/// Asserts the request decoder agrees with the reference on `body`.  The
/// arena is shared across calls and holds a stale row on entry, which must
/// never leak into a result.
fn request_agrees(body: &[u8], max_batch: usize, arena: &mut StateArena) {
    arena.push_row().push(f64::NAN);
    let got = decode_decide_request_into(body, max_batch, arena)
        .map(|batched| (row_bits(arena.rows()), batched));
    let want = dom_request(body, max_batch).map(|(rows, batched)| (row_bits(&rows), batched));
    assert_eq!(
        got,
        want,
        "request {:?} with max_batch {max_batch}",
        String::from_utf8_lossy(body)
    );
}

fn response_agrees(body: &[u8]) {
    assert_eq!(
        decode_decide_response(body).map(decision_bits),
        dom_response(body).map(decision_bits),
        "response {:?}",
        String::from_utf8_lossy(body)
    );
}

/// Runs `body` through both decoders, the request one at batch limits
/// below, at and above the bodies' row counts.
fn agrees(body: &[u8], arena: &mut StateArena) {
    for max_batch in [0, 2, 3, 64] {
        request_agrees(body, max_batch, arena);
    }
    response_agrees(body);
}

/// Valid request bodies: the client encoder's bytes, and a hand-written
/// body with whitespace, an unknown key and integers past 2^53.
fn request_seeds() -> Vec<Vec<u8>> {
    let states = vec![
        vec![0.11, -2.5e-3, 1e22],
        vec![-0.0, 5e-324, 123456.78901234567],
        vec![],
    ];
    vec![
        decide_batch_request(&states).into_bytes(),
        br#" { "id" : "run\u00e9" , "states" : [ [ 9007199254740993 , -0.5E+2 ] , [18446744073709551616, 0] , [ ] ] , "meta" : { "x" : [ true , null ] } } "#
            .to_vec(),
        br#"{"state": [0.25, -9007199254740993, 1e-300]}"#.to_vec(),
    ]
}

/// Valid response bodies: the server encoder's bytes, and a hand-written
/// body with whitespace, reordered and unknown keys.
fn response_seeds() -> Vec<Vec<u8>> {
    let decisions = vec![
        ShieldDecision {
            action: vec![0.5, -1.25e-7],
            intervened: true,
        },
        ShieldDecision {
            action: vec![-0.0, 3.0],
            intervened: false,
        },
        ShieldDecision {
            action: vec![f64::MIN_POSITIVE],
            intervened: false,
        },
    ];
    let mut encoded = Vec::new();
    decide_response_into("pendulum", &decisions, true, &mut encoded);
    vec![
        encoded,
        br#" { "decisions" : [ { "intervened" : false , "x" : { } , "action" : [ 1 , 9007199254740993 ] } , { "action" : [ ] , "intervened" : true } ] , "count" : 2 } "#
            .to_vec(),
    ]
}

fn seeds() -> Vec<Vec<u8>> {
    let mut seeds = request_seeds();
    seeds.extend(response_seeds());
    seeds
}

#[test]
fn every_truncation_agrees() {
    let mut arena = StateArena::new();
    for seed in seeds() {
        for len in 0..=seed.len() {
            agrees(&seed[..len], &mut arena);
        }
    }
}

#[test]
fn every_bit_flip_agrees() {
    let mut arena = StateArena::new();
    for seed in seeds() {
        for offset in 0..seed.len() {
            for bit in 0..8 {
                let mut flipped = seed.clone();
                flipped[offset] ^= 1 << bit;
                agrees(&flipped, &mut arena);
            }
        }
    }
}

#[test]
fn seeded_random_mutations_agree() {
    // Half the inserted or replaced bytes come from JSON's own alphabet, so
    // mutations often stay near-valid and reach the schema checks.
    const ALPHABET: &[u8] = b"{}[]\",:.-+eE0123456789 \ttrufalsn\\x";
    let mut rng = SmallRng::seed_from_u64(23);
    let mut arena = StateArena::new();
    for seed in seeds() {
        for _ in 0..1000 {
            let mut body = seed.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let byte = if rng.gen_bool(0.5) {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                } else {
                    rng.gen::<u32>() as u8
                };
                let offset = rng.gen_range(0..body.len());
                match rng.gen_range(0..3u32) {
                    0 => body[offset] = byte,
                    1 => {
                        body.remove(offset);
                    }
                    _ => body.insert(offset, byte),
                }
            }
            agrees(&body, &mut arena);
        }
    }
}

#[test]
fn key_handling_and_whitespace_agree() {
    let cases: &[&[u8]] = &[
        // Duplicate keys: the first occurrence wins, whatever follows.
        br#"{"state":[1],"state":[2]}"#,
        br#"{"state":"x","state":[2]}"#,
        br#"{"states":[[1]],"states":5}"#,
        br#"{"states":5,"states":[[1]]}"#,
        br#"{"decisions":[],"decisions":[{"action":[1],"intervened":false}]}"#,
        br#"{"decisions":[{"action":[1],"intervened":true,"action":"x","intervened":5}]}"#,
        br#"{"decisions":[{"intervened":5,"intervened":true,"action":[1]}]}"#,
        // Unknown keys, including ones nesting the known names.
        br#"{"x":{"state":[1]},"state":[3],"y":[[1,{"states":2}]]}"#,
        br#"{"deployment":"d\u00e9","count":1,"decisions":[{"action":[2],"intervened":true,"why":null}]}"#,
        br#"{"decision":{"action":[1],"intervened":true}}"#,
        // Escaped and malformed keys.
        br#"{"st\u0061te":[1]}"#,
        br#"{"stat\u0065s":[[1]]}"#,
        br#"{"decisi\u006fns":[{"\u0061ction":[2],"intervened":false}]}"#,
        br#"{"sta\"te":[1]}"#,
        br#"{"st\qte":[1]}"#,
        b"{\"\xff\":1}",
        b"{\"a\x01\":1}",
        b"{\"state\xc3\xa9\":[1]}",
        br#"{state:[1]}"#,
        br#"{"state" [1]}"#,
        // Whitespace everywhere.
        b" \t\n{ \r\"states\" \n: [ [ 1 , 2 ] , [ ] ] } \n",
        b"\r\n{\"decisions\"\t:\t[\t{ \"action\" : [ 1 ] , \"intervened\" : true } ]\n}\n",
        // "state" together with "states", in either order and any shape.
        br#"{"state":[1],"states":[[1]]}"#,
        br#"{"states":[[1]],"state":[1]}"#,
        br#"{"state":5,"states":"x"}"#,
        // Integer literals past 2^53 and past u64.
        br#"{"state":[9007199254740993,18446744073709551615,18446744073709551616,123456789012345678901234567890,-9007199254740993]}"#,
        br#"{"decisions":[{"action":[9007199254740993,18446744073709551617],"intervened":false}]}"#,
        // Numbers JSON cannot carry, and malformed numbers.
        br#"{"state":[1e999]}"#,
        br#"{"state":[NaN]}"#,
        br#"{"state":[-]}"#,
        br#"{"state":[01, 1.]}"#,
        br#"{"state":[1,"x",[2]]}"#,
        // Schema errors in rows, and which one ranks first.
        br#"{"states":[[1],"x",[2,"y"]]}"#,
        br#"{"states":[[1],[2,"y"],"x"]}"#,
        br#"{"decisions":[1,{"action":"x"}]}"#,
        br#"{"decisions":[{"intervened":true}]}"#,
        br#"{"decisions":[{"intervened":1,"action":"x"}]}"#,
        br#"{"decisions":[{"action":[1],"intervened":1}]}"#,
        br#"{"decisions":[{"action":[1]}]}"#,
        br#"{"decisions":[{"action":"x"}]}"#,
        br#"{"decisions":[{"action":[true]},{"intervened":true}]}"#,
        br#"{"decisions":[{"action":[1,null],"intervened":true}]}"#,
        br#"{"decisions":{"a":1}}"#,
        br#"{"decisions":null}"#,
        // A schema error followed by a syntax error: the syntax error wins.
        br#"{"state":"x","y":[1,}"#,
        br#"{"decisions":[1],"y":tru}"#,
        br#"{"states":[[1],[2]]} x"#,
        // Trailing commas and empty shapes.
        br#"{"state":[1,]}"#,
        br#"{"states":[[1],]}"#,
        br#"{"state":[1],}"#,
        br#"{"state":[]}"#,
        br#"{"states":[]}"#,
        b"{}",
        b"{\"a\":1}",
        // Tops that are not objects.
        b"[1]",
        b"1",
        b"\"state\"",
        b"null",
        b"true",
        b"",
        b"   ",
    ];
    let mut arena = StateArena::new();
    for case in cases {
        agrees(case, &mut arena);
    }
}

#[test]
fn values_nested_past_the_depth_limit_agree() {
    let mut arena = StateArena::new();
    for depth in (MAX_JSON_DEPTH - 4..=MAX_JSON_DEPTH + 4).chain([1000]) {
        let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let unclosed = "[".repeat(depth);
        for nest in [&arrays, &objects, &unclosed] {
            for body in [
                nest.clone(),
                format!("{{\"x\":{nest},\"states\":[[1]]}}"),
                format!("{{\"states\":[[1]],\"x\":{nest}}}"),
                format!("{{\"states\":[{nest}]}}"),
                format!("{{\"states\":[[1],[{nest}]]}}"),
                format!("{{\"state\":[{nest}]}}"),
                format!("{{\"state\":{nest}}}"),
                format!("{{\"state\":[1],\"state\":{nest}}}"),
                format!("{{\"x\":{nest},\"decisions\":[]}}"),
                format!("{{\"decisions\":[{nest}]}}"),
                format!("{{\"decisions\":[{{\"action\":[1],\"intervened\":true,\"x\":{nest}}}]}}"),
                format!("{{\"decisions\":[{{\"action\":[{nest}],\"intervened\":true}}]}}"),
                format!("{{\"decisions\":[{{\"action\":[1],\"intervened\":{nest}}}]}}"),
            ] {
                agrees(body.as_bytes(), &mut arena);
            }
        }
    }
}

#[test]
fn batches_at_and_past_the_limit_agree() {
    let mut arena = StateArena::new();
    for max_batch in [0, 1, 4, 64] {
        let rows = |n: usize| -> Vec<String> { (0..n).map(|i| format!("[{i},0.5]")).collect() };
        let body =
            |rows: &[String], tail: &str| format!("{{\"states\":[{}]{tail}}}", rows.join(","));
        let exact = rows(max_batch);
        let over = rows(max_batch + 1);
        let mut bodies = vec![
            body(&exact, ""),
            body(&over, ""),
            body(&over, ",\"x\":[1,2]"),
            body(&over, ",\"state\":[1]"),
            body(&over, ",\"x\":[1,}"),
        ];
        // A malformed row first, last, or just past the limit.
        for at in [0, max_batch.saturating_sub(1), max_batch] {
            for bad in ["\"x\"", "[\"x\"]", "[[1]]"] {
                for template in [&exact, &over] {
                    if at < template.len() {
                        let mut rows = template.clone();
                        rows[at] = bad.to_string();
                        bodies.push(body(&rows, ""));
                    }
                }
            }
        }
        for body in bodies {
            request_agrees(body.as_bytes(), max_batch, &mut arena);
        }
    }
}

#[test]
fn arena_decoder_agrees_with_the_allocating_decoder() {
    let corpus: &[&[u8]] = &[
        br#"{"state": [0.25, -0.5]}"#,
        br#"{"states": [[1], [2, 3], []]}"#,
        br#"{"states": []}"#,
        br#"{"states": [[0], [0], [0]]}"#,
        b"{}",
        b"{\"state\": 1}",
        b"{\"states\": [[1], 2]}",
        b"{\"state\": [1], \"states\": [[1]]}",
        b"{\"states\": [[1], [\"x\"]]}",
        b"{\"state\": [NaN]}",
        b"[1,2]",
        b"",
        b"{\"states\": [[0.1, 0.2",
    ];
    let mut arena = StateArena::new();
    for body in corpus {
        request_agrees(body, 2, &mut arena);
    }
}
