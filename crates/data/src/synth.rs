//! Procedural synthetic digit generator — the MNIST substitute.
//!
//! Each digit class is defined by a set of stroke polylines in a normalized
//! `[0,1]²` canvas. A sample is produced by applying a random affine
//! transform (rotation, anisotropic scale, translation, shear) to the
//! template, rasterizing it with an anti-aliased distance field at a random
//! stroke width, and adding Gaussian pixel noise. The generator is fully
//! deterministic under its seed.
//!
//! Only kept work is done, and no bit depends on how it is scheduled:
//!
//! * The rasterizer ([`render_digit`]) scatters each stroke segment's
//!   squared distances over the pixel window its stroke can reach and takes
//!   one `sqrt` per reached pixel; pixels no window reaches stay 0 before
//!   noise. This equals, bit for bit, the distance to every segment at every
//!   pixel (the test oracle): inside a window the operations and their order
//!   are the oracle's, `min` is exact, `sqrt` is correctly rounded and
//!   monotone, and a segment outside its window can only give a 0.
//! * A dataset's slot order ([`DigitPlan`]) is drawn before any pixel
//!   exists, so its labels can be partitioned first and any subset of slots
//!   rendered straight into its rows — a federated client renders only its
//!   own shard. Each sample draws from its own seed stream, so a slot's
//!   image does not depend on which other slots are rendered.
//!
//! Class pairs (5, 7) and (4, 2) — the targets of the paper's label-flip
//! attack — share strokes (5/7 share the top bar, 4/2 share a diagonal),
//! giving the targeted attack the "visually adjacent classes" character it
//! has on MNIST.

use crate::dataset::Dataset;
use fg_tensor::rng::{derive_seed, SeededRng};
use rayon::prelude::*;

/// Image side length (28, matching MNIST).
pub const SIDE: usize = 28;
/// Flattened image dimensionality.
pub const DIM: usize = SIDE * SIDE;
/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

type Point = (f32, f32);

/// Stroke templates per class, in normalized canvas coordinates
/// (x right, y down).
fn template(class: usize) -> Vec<Vec<Point>> {
    // A few reusable fragments.
    let circle = |cx: f32, cy: f32, rx: f32, ry: f32, from: f32, to: f32, n: usize| -> Vec<Point> {
        (0..=n)
            .map(|i| {
                let t = from + (to - from) * i as f32 / n as f32;
                (cx + rx * t.cos(), cy + ry * t.sin())
            })
            .collect()
    };
    use std::f32::consts::PI;
    match class {
        // 0: full oval outline.
        0 => vec![circle(0.5, 0.5, 0.28, 0.38, 0.0, 2.0 * PI, 24)],
        // 1: vertical stroke with a small flag.
        1 => vec![vec![(0.42, 0.22), (0.55, 0.12), (0.55, 0.88)]],
        // 2: top arc, diagonal to bottom-left, bottom bar.
        2 => vec![
            circle(0.5, 0.3, 0.25, 0.18, -PI, 0.0, 10),
            vec![(0.75, 0.3), (0.7, 0.45), (0.3, 0.85)],
            vec![(0.3, 0.85), (0.78, 0.85)],
        ],
        // 3: two right-bulging arcs stacked.
        3 => vec![
            circle(0.45, 0.3, 0.26, 0.18, -PI * 0.9, PI * 0.5, 12),
            circle(0.45, 0.68, 0.28, 0.2, -PI * 0.5, PI * 0.9, 12),
        ],
        // 4: open top: left diagonal down to mid bar, vertical right stroke.
        4 => vec![vec![(0.62, 0.12), (0.25, 0.6), (0.8, 0.6)], vec![(0.62, 0.12), (0.62, 0.88)]],
        // 5: top bar, left vertical, mid bar, lower-right bulge.
        5 => vec![
            vec![(0.75, 0.14), (0.3, 0.14), (0.3, 0.48)],
            circle(0.48, 0.66, 0.26, 0.22, -PI * 0.5, PI * 0.75, 12),
        ],
        // 6: tall left curve closing into a lower loop.
        6 => vec![
            vec![(0.68, 0.14), (0.38, 0.4), (0.32, 0.62)],
            circle(0.5, 0.68, 0.2, 0.18, 0.0, 2.0 * PI, 16),
        ],
        // 7: top bar and a long diagonal (shares the top bar with 5).
        7 => vec![vec![(0.25, 0.14), (0.75, 0.14), (0.42, 0.88)]],
        // 8: two stacked loops.
        8 => vec![
            circle(0.5, 0.32, 0.19, 0.17, 0.0, 2.0 * PI, 16),
            circle(0.5, 0.68, 0.23, 0.19, 0.0, 2.0 * PI, 16),
        ],
        // 9: upper loop with a tail (mirror of 6).
        9 => vec![
            circle(0.5, 0.32, 0.2, 0.18, 0.0, 2.0 * PI, 16),
            vec![(0.7, 0.36), (0.64, 0.62), (0.5, 0.88)],
        ],
        _ => panic!("digit class {class} out of range"),
    }
}

/// Per-sample random rendering parameters.
#[derive(Clone, Copy, Debug)]
struct Jitter {
    rotation: f32,
    scale_x: f32,
    scale_y: f32,
    shear: f32,
    dx: f32,
    dy: f32,
    thickness: f32,
    brightness: f32,
    noise_sigma: f32,
}

impl Jitter {
    fn sample(rng: &mut SeededRng) -> Self {
        Jitter {
            rotation: (rng.next_f32() - 0.5) * 0.42, // ±12°
            scale_x: 0.85 + rng.next_f32() * 0.3,
            scale_y: 0.85 + rng.next_f32() * 0.3,
            shear: (rng.next_f32() - 0.5) * 0.2,
            dx: (rng.next_f32() - 0.5) * 0.12,
            dy: (rng.next_f32() - 0.5) * 0.12,
            thickness: 0.045 + rng.next_f32() * 0.025,
            brightness: 0.85 + rng.next_f32() * 0.15,
            noise_sigma: 0.03 + rng.next_f32() * 0.02,
        }
    }
}

fn apply_affine(p: Point, j: &Jitter) -> Point {
    // Center, shear, scale, rotate, translate, un-center.
    let (mut x, mut y) = (p.0 - 0.5, p.1 - 0.5);
    x += j.shear * y;
    x *= j.scale_x;
    y *= j.scale_y;
    let (s, c) = j.rotation.sin_cos();
    let (rx, ry) = (c * x - s * y, s * x + c * y);
    (rx + 0.5 + j.dx, ry + 0.5 + j.dy)
}

/// The class's strokes under the sample's affine jitter.
fn strokes(class: usize, jitter: &Jitter) -> Vec<Vec<Point>> {
    let mut strokes = template(class);
    for p in strokes.iter_mut().flatten() {
        *p = apply_affine(*p, jitter);
    }
    strokes
}

/// The pixel indices along one axis whose centres may lie in `[lo, hi]`
/// (canvas units), clamped to the canvas; a spare index on either side.
fn pixel_span(lo: f32, hi: f32) -> std::ops::Range<usize> {
    let side = SIDE as f32;
    let first = (lo * side - 0.5).floor().max(0.0) as usize;
    let end = ((hi * side - 0.5).ceil() + 1.0).max(0.0) as usize;
    first.min(SIDE)..end.min(SIDE)
}

/// Draw `strokes` into `img` (all 784 pixels written) as an anti-aliased
/// distance field: full `brightness` within `thickness` of a stroke, a
/// linear falloff over one more pixel width, 0 beyond.
///
/// Each segment scatters squared pixel-centre distances into a per-pixel
/// minimum over the pixel window of its bounding box widened by `reach`;
/// one `sqrt` per reached pixel then turns the minimum into a distance.
/// This gives the bits of the per-pixel loop over every segment (the test
/// oracle). A pixel centre outside a segment's window is more than
/// `reach = thickness + aa + 1 px` from it along one axis, so its distance
/// exceeds `thickness + aa` by far more than any rounding and the segment
/// could only have given it 0. Inside the window each (pixel, segment)
/// pair runs the oracle's operations in the oracle's order, `min` is exact,
/// and `sqrt` is correctly rounded and monotone, so the root of the
/// minimum is the minimum of the roots.
fn rasterize(strokes: &[Vec<Point>], jitter: &Jitter, img: &mut [f32]) {
    let inv = 1.0 / SIDE as f32;
    let aa = inv;
    let reach = jitter.thickness + aa + inv;
    let mut nearest = [f32::INFINITY; DIM];
    for poly in strokes {
        for seg in poly.windows(2) {
            let (a, b) = (seg[0], seg[1]);
            let (vx, vy) = (b.0 - a.0, b.1 - a.1);
            let len2 = vx * vx + vy * vy;
            let cols = pixel_span(a.0.min(b.0) - reach, a.0.max(b.0) + reach);
            for py in pixel_span(a.1.min(b.1) - reach, a.1.max(b.1) + reach) {
                let qy = (py as f32 + 0.5) * inv - a.1;
                let row = &mut nearest[py * SIDE..(py + 1) * SIDE];
                for px in cols.clone() {
                    let qx = (px as f32 + 0.5) * inv - a.0;
                    let t =
                        if len2 > 0.0 { ((qx * vx + qy * vy) / len2).clamp(0.0, 1.0) } else { 0.0 };
                    let (dx, dy) = (qx - t * vx, qy - t * vy);
                    row[px] = row[px].min(dx * dx + dy * dy);
                }
            }
        }
    }
    for (v, &d2) in img.iter_mut().zip(&nearest) {
        if d2 == f32::INFINITY {
            *v = 0.0;
            continue;
        }
        let d = d2.sqrt();
        let ink = if d <= jitter.thickness {
            1.0
        } else if d <= jitter.thickness + aa {
            1.0 - (d - jitter.thickness) / aa
        } else {
            0.0
        };
        *v = ink * jitter.brightness;
    }
}

/// Render one digit of `class` into `img` (784 floats), drawing from `rng`:
/// the jitter, the strokes, then one pixel-noise draw per pixel in order,
/// clamped to `[0, 1]`.
fn render_into(class: usize, rng: &mut SeededRng, img: &mut [f32]) {
    let jitter = Jitter::sample(rng);
    rasterize(&strokes(class, &jitter), &jitter, img);
    for v in img {
        *v = (*v + jitter.noise_sigma * rng.next_normal()).clamp(0.0, 1.0);
    }
}

/// Render one digit of the given class into a flat 784-pixel buffer in
/// `[0, 1]`, deterministic under `rng`.
pub fn render_digit(class: usize, rng: &mut SeededRng) -> Vec<f32> {
    let mut img = vec![0.0f32; DIM];
    render_into(class, rng, &mut img);
    img
}

/// The slot order of `generate_dataset(per_class, seed)`, drawn before any
/// pixel exists, so labels can be read and any subset of slots rendered
/// without rendering the rest.
///
/// Sample `i` (class `i / per_class`) is rendered under
/// `derive_seed(seed, i)`; slot `p` holds sample `order[p]`, where `order`
/// is the identity shuffled by `SeededRng::shuffle` under
/// `derive_seed(seed, u64::MAX)`. That is the permutation shuffling the
/// rendered set in place under that stream gives, draw for draw.
pub struct DigitPlan {
    per_class: usize,
    seed: u64,
    order: Vec<usize>,
}

impl DigitPlan {
    pub fn new(per_class: usize, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..per_class * NUM_CLASSES).collect();
        SeededRng::new(derive_seed(seed, u64::MAX)).shuffle(&mut order);
        DigitPlan { per_class, seed, order }
    }

    /// The label of every slot, in slot order.
    pub fn labels(&self) -> Vec<u8> {
        self.order.iter().map(|&i| (i / self.per_class) as u8).collect()
    }

    /// Render the given slots, in the given order, each straight into its
    /// row: `generate_dataset(per_class, seed).subset(slots)` without the
    /// other slots. An empty `slots` gives an empty set of `dim` 784.
    pub fn render(&self, slots: &[usize]) -> Dataset {
        let mut images = vec![0.0f32; slots.len() * DIM];
        images.par_chunks_mut(DIM).zip(slots).for_each(|(img, &p)| {
            let i = self.order[p];
            render_into(
                i / self.per_class,
                &mut SeededRng::new(derive_seed(self.seed, i as u64)),
                img,
            );
        });
        let labels = slots.iter().map(|&p| (self.order[p] / self.per_class) as u8).collect();
        Dataset::with_dim(images, labels, DIM)
    }
}

/// Generate a balanced dataset with `per_class` samples of each digit,
/// deterministic under `seed`: every slot of [`DigitPlan::new`] rendered in
/// place, in parallel.
pub fn generate_dataset(per_class: usize, seed: u64) -> Dataset {
    let plan = DigitPlan::new(per_class, seed);
    plan.render(&(0..plan.order.len()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance from point `p` to segment `a`–`b`.
    fn dist_to_segment(p: Point, a: Point, b: Point) -> f32 {
        let (px, py) = (p.0 - a.0, p.1 - a.1);
        let (vx, vy) = (b.0 - a.0, b.1 - a.1);
        let len2 = vx * vx + vy * vy;
        let t = if len2 > 0.0 { ((px * vx + py * vy) / len2).clamp(0.0, 1.0) } else { 0.0 };
        let (dx, dy) = (px - t * vx, py - t * vy);
        (dx * dx + dy * dy).sqrt()
    }

    /// The oracle for [`rasterize`]: the distance to every segment at every
    /// pixel, the renderer's original loop.
    fn rasterize_per_pixel(strokes: &[Vec<Point>], jitter: &Jitter) -> Vec<f32> {
        let mut img = vec![0.0f32; DIM];
        let inv = 1.0 / SIDE as f32;
        for py in 0..SIDE {
            for px in 0..SIDE {
                let p = ((px as f32 + 0.5) * inv, (py as f32 + 0.5) * inv);
                let mut d = f32::INFINITY;
                for poly in strokes {
                    for seg in poly.windows(2) {
                        d = d.min(dist_to_segment(p, seg[0], seg[1]));
                    }
                }
                // Anti-aliased stroke: full intensity inside the stroke core,
                // smooth falloff over one pixel width.
                let aa = inv;
                let v = if d <= jitter.thickness {
                    1.0
                } else if d <= jitter.thickness + aa {
                    1.0 - (d - jitter.thickness) / aa
                } else {
                    0.0
                };
                img[py * SIDE + px] = v * jitter.brightness;
            }
        }
        img
    }

    /// The first pixel where the culled raster and the oracle differ in bits.
    fn raster_mismatch(strokes: &[Vec<Point>], jitter: &Jitter) -> Option<(usize, f32, f32)> {
        let mut culled = vec![f32::NAN; DIM];
        rasterize(strokes, jitter, &mut culled);
        let oracle = rasterize_per_pixel(strokes, jitter);
        (0..DIM)
            .find(|&i| culled[i].to_bits() != oracle[i].to_bits())
            .map(|i| (i, culled[i], oracle[i]))
    }

    #[test]
    fn culled_raster_matches_the_per_pixel_oracle_bit_for_bit() {
        let seeds = 10_000u64;
        let bad: Vec<(usize, u64, (usize, f32, f32))> = (0..NUM_CLASSES * seeds as usize)
            .into_par_iter()
            .map(|k| {
                let (class, seed) = (k % NUM_CLASSES, (k / NUM_CLASSES) as u64);
                let jitter = Jitter::sample(&mut SeededRng::new(derive_seed(77, seed)));
                raster_mismatch(&strokes(class, &jitter), &jitter).map(|m| (class, seed, m))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        assert!(
            bad.is_empty(),
            "{} rasters moved; first (class, seed, (pixel, culled, oracle)): {:?}",
            bad.len(),
            bad[0]
        );
    }

    #[test]
    fn whole_render_matches_the_oracle_render() {
        for class in 0..NUM_CLASSES {
            for seed in 0..50 {
                let mut rng = SeededRng::new(derive_seed(5, seed));
                let jitter = Jitter::sample(&mut rng);
                let mut want = rasterize_per_pixel(&strokes(class, &jitter), &jitter);
                for v in &mut want {
                    *v = (*v + jitter.noise_sigma * rng.next_normal()).clamp(0.0, 1.0);
                }
                let got = render_digit(class, &mut SeededRng::new(derive_seed(5, seed)));
                assert!(
                    got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "class {class} seed {seed}"
                );
            }
        }
    }

    /// Jitters at the ends of every sampled range: the thickest and
    /// thinnest stroke, the largest shift, rotation, scale and shear.
    fn extreme_jitters() -> Vec<Jitter> {
        let mut out = Vec::new();
        for &(rotation, scale, shear, shift) in &[
            (0.21f32, 1.15f32, 0.1f32, 0.06f32),
            (-0.21, 0.85, -0.1, -0.06),
            (0.21, 1.15, -0.1, 0.06),
        ] {
            for thickness in [0.045f32, 0.07] {
                out.push(Jitter {
                    rotation,
                    scale_x: scale,
                    scale_y: scale,
                    shear,
                    dx: shift,
                    dy: -shift,
                    thickness,
                    brightness: 1.0,
                    noise_sigma: 0.05,
                });
            }
        }
        out
    }

    #[test]
    fn culled_raster_matches_the_oracle_on_extreme_jitters() {
        for jitter in extreme_jitters() {
            for class in 0..NUM_CLASSES {
                let strokes = strokes(class, &jitter);
                assert_eq!(raster_mismatch(&strokes, &jitter), None, "class {class} {jitter:?}");
            }
        }
    }

    #[test]
    fn culled_raster_matches_the_oracle_off_canvas_and_on_zero_length_segments() {
        let strokes = vec![
            // Partly off the canvas on three sides.
            vec![(-0.2, 0.5), (0.5, 0.5), (1.3, 1.2)],
            // Wholly off the canvas but within a stroke width of its edge.
            vec![(-0.03, 0.2), (-0.03, 0.8)],
            // Far off the canvas.
            vec![(-0.6, -0.5), (-0.4, -0.3)],
            // A zero-length segment (the `len2 == 0` branch), on its own and
            // inside a polyline.
            vec![(0.3, 0.3), (0.3, 0.3)],
            vec![(0.7, 0.2), (0.7, 0.2), (0.8, 0.4)],
            // A lone point draws nothing.
            vec![(0.5, 0.9)],
        ];
        for jitter in extreme_jitters() {
            assert_eq!(raster_mismatch(&strokes, &jitter), None, "{jitter:?}");
            for poly in &strokes {
                assert_eq!(raster_mismatch(std::slice::from_ref(poly), &jitter), None, "{poly:?}");
            }
        }
        // The zero-length segment alone inks a disc around its point.
        let jitter = extreme_jitters()[1];
        let mut img = vec![0.0; DIM];
        rasterize(&[vec![(0.5, 0.5), (0.5, 0.5)]], &jitter, &mut img);
        assert_eq!(img[14 * SIDE + 14], 1.0);
        assert_eq!(img[0], 0.0);
    }

    #[test]
    fn generate_dataset_is_the_shuffled_per_sample_render() {
        // The generator's former body: render every sample under its own
        // stream, stack them in sample order, shuffle the set in place.
        let (per_class, seed) = (7, 31);
        let n = per_class * NUM_CLASSES;
        let mut flat = Vec::new();
        for i in 0..n {
            flat.extend(render_digit(
                i / per_class,
                &mut SeededRng::new(derive_seed(seed, i as u64)),
            ));
        }
        let mut want = Dataset::new(flat, (0..n).map(|i| (i / per_class) as u8).collect());
        want.shuffle(&mut SeededRng::new(derive_seed(seed, u64::MAX)));
        assert_eq!(generate_dataset(per_class, seed), want);
    }

    #[test]
    fn plan_renders_any_slots_as_the_subset_of_the_whole() {
        let plan = DigitPlan::new(6, 8);
        let whole = generate_dataset(6, 8);
        assert_eq!(plan.labels(), whole.labels());
        let slots = [59, 0, 17, 17, 3];
        assert_eq!(plan.render(&slots), whole.subset(&slots));
        let empty = plan.render(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), DIM);
    }

    #[test]
    fn render_is_deterministic_per_seed() {
        let a = render_digit(3, &mut SeededRng::new(7));
        let b = render_digit(3, &mut SeededRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn render_varies_across_seeds() {
        let a = render_digit(3, &mut SeededRng::new(7));
        let b = render_digit(3, &mut SeededRng::new(8));
        assert_ne!(a, b);
    }

    #[test]
    fn pixels_are_normalized() {
        for class in 0..NUM_CLASSES {
            let img = render_digit(class, &mut SeededRng::new(42 + class as u64));
            assert_eq!(img.len(), DIM);
            assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn digits_have_ink() {
        // Every class must draw something substantial but not fill the canvas.
        for class in 0..NUM_CLASSES {
            let img = render_digit(class, &mut SeededRng::new(1000 + class as u64));
            let ink: f32 = img.iter().sum();
            assert!(ink > 20.0, "class {class} almost empty: {ink}");
            assert!(ink < 500.0, "class {class} almost full: {ink}");
        }
    }

    #[test]
    fn classes_are_mutually_distinguishable_on_average() {
        // Mean images of different classes should differ far more than two
        // mean images of the same class from disjoint sample sets.
        let n = 30;
        let mean_img = |class: usize, salt: u64| -> Vec<f32> {
            let mut acc = vec![0.0f32; DIM];
            for i in 0..n {
                let mut rng = SeededRng::new(salt * 10_000 + i);
                let img = render_digit(class, &mut rng);
                for (a, v) in acc.iter_mut().zip(&img) {
                    *a += v / n as f32;
                }
            }
            acc
        };
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };
        let m3a = mean_img(3, 1);
        let m3b = mean_img(3, 2);
        let m8 = mean_img(8, 3);
        let within = dist(&m3a, &m3b);
        let between = dist(&m3a, &m8);
        assert!(
            between > 2.0 * within,
            "class separation too weak: within={within}, between={between}"
        );
    }

    #[test]
    fn generate_dataset_is_balanced_and_deterministic() {
        let ds1 = generate_dataset(5, 99);
        let ds2 = generate_dataset(5, 99);
        assert_eq!(ds1.images(), ds2.images());
        assert_eq!(ds1.len(), 50);
        let hist = ds1.class_histogram(NUM_CLASSES);
        assert!(hist.iter().all(|&c| c == 5), "{hist:?}");
    }

    #[test]
    #[should_panic]
    fn unknown_class_panics() {
        render_digit(10, &mut SeededRng::new(0));
    }
}
