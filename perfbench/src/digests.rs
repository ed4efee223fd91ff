//! Expected front digests of the sweep workloads, one per seed,
//! recorded from `Exploration::run` with `perfbench --record-digests N`.
//! A seed missing from the table is checked by the traced replay.

use crate::sweep::{Front, Kind, SweepSpec};

/// `(seed, huge_random, gray_cached, gray_fidelity)`.
#[rustfmt::skip]
const TABLE: &[(u64, u64, u64, u64)] = &[
    (0, 0x4265a188fc96f748, 0x779abf56cf39ef11, 0xa1d78bcd2fcc4025),
    (1, 0x40d6813f5d1db764, 0x6d8302b00480f9e8, 0x2c0763914fcf4d7a),
    (2, 0xd39e03f4edb33864, 0xf448b1e606a41572, 0xa3da41ee24709219),
    (3, 0xf57224dc94f1c170, 0x194d1f9e3d6456c3, 0x834a3776750336dc),
    (4, 0x4e36da95dba1f354, 0x00f2b73128195003, 0xba059bdcc3de435d),
    (5, 0x78e97366532c22df, 0x00f2b73128195003, 0x6b2a4c6d4c1dc8fe),
    (6, 0x7bb54f4479d6e717, 0x3a26040c3c1e5866, 0x704261462f69d932),
    (7, 0xefeac0b8a22211b0, 0x779abf56cf39ef11, 0x045aef2781f3c77b),
    (8, 0x045c5a0b2a6233c5, 0xf448b1e606a41572, 0xb7c9aed0740aad54),
    (9, 0x9d7925c399501401, 0x4a26bf4e56fce91d, 0x0bf2257cf9fa7102),
    (10, 0x1b3285e6b27dc580, 0x00f2b73128195003, 0xc1c80529a05a7208),
    (11, 0xa2d5ec0e28cabdf4, 0x194d1f9e3d6456c3, 0x05fb9c0724026ddb),
    (12, 0x6deafdb13bfb1de4, 0x326d6626126a085c, 0xf27740564513377d),
    (13, 0x9b16d56d2089b330, 0x779abf56cf39ef11, 0xb907e4de3e7a41bf),
    (14, 0xd20a15c0e00f4155, 0xf448b1e606a41572, 0x5d5fa4731e9d696d),
    (15, 0xa3cbfa5687324bee, 0x194d1f9e3d6456c3, 0x310894ae37f2b054),
    (16, 0xa4a03a965ad31620, 0x779abf56cf39ef11, 0x63e9ea560e5b50e4),
    (17, 0x55375211a4528383, 0x326d6626126a085c, 0x827ef75bb0215050),
    (18, 0x874da22634285c49, 0x00f2b73128195003, 0x4a5e108ae9c3f2dc),
    (19, 0x8fe26651849b96b1, 0x4a26bf4e56fce91d, 0x7acd8cc71b58fec6),
    (20, 0xa071b42d336e94ac, 0x4a26bf4e56fce91d, 0x3c5001a8903daa6f),
    (21, 0xe3373598dbb94869, 0x779abf56cf39ef11, 0x518d668c9c57639d),
    (22, 0x2fb0bca03c4f45bf, 0x00f2b73128195003, 0xe8875647dcfeac02),
    (23, 0x2f30ecac94b35686, 0xf448b1e606a41572, 0xd6943302f8359d9b),
    (24, 0x33e848007533907d, 0x4a26bf4e56fce91d, 0xc12b9acb11c6695c),
    (25, 0xcbc6b5d5dca919d3, 0x6d8302b00480f9e8, 0x560175be5b3cb931),
    (26, 0xcc08c099d38b69e4, 0x00f2b73128195003, 0x23b410deeb719c81),
    (27, 0xa3c6d692e5e028bf, 0x00f2b73128195003, 0xda03176943e8e0fd),
    (28, 0x0bb808b47f8fd996, 0x4a26bf4e56fce91d, 0x3099ad18b810bfcd),
    (29, 0xbe9be6c26b2c356f, 0x3a26040c3c1e5866, 0x6a6fef37c98eecfe),
    (30, 0xd20ad9fe0422da50, 0xf448b1e606a41572, 0xc980e2678f0cb1dc),
    (31, 0xff9d1280da98464d, 0x00f2b73128195003, 0x08eed7c269ea2a79),
    (32, 0xefb5520e8dc07760, 0x6d8302b00480f9e8, 0x607a41f48a336547),
    (33, 0xf7aa67563819471b, 0x3a26040c3c1e5866, 0x780a0b39129cd33b),
    (34, 0x3fef0662e2a571af, 0x194d1f9e3d6456c3, 0x751c6591203f1196),
    (35, 0xdefb55104647a16e, 0x326d6626126a085c, 0x5c62d453c0562899),
    (36, 0x5beb8442b5362db0, 0x326d6626126a085c, 0x4b03d2ccdc3d643b),
    (37, 0x9ed195524ef73e09, 0x779abf56cf39ef11, 0x409d7f5990d9a0f3),
    (38, 0xd817b9a3c9a7055d, 0x3a26040c3c1e5866, 0x31bc29e95f8e6df4),
    (39, 0x4ffabe2b26541293, 0x4a26bf4e56fce91d, 0x9aaf0ecc4ca19ae5),
    (40, 0x462a213af0880799, 0x00f2b73128195003, 0x4567265200cecda5),
    (41, 0x06507b3feb247267, 0x6d8302b00480f9e8, 0xb89f51b6c28a1809),
    (42, 0x73ff266a0346f8fd, 0x194d1f9e3d6456c3, 0x65e7d89f3296cca3),
    (43, 0x494c6b61fa1ba7ec, 0x3a26040c3c1e5866, 0xf3bc0f7348084233),
    (44, 0x0714e2cde369f669, 0x326d6626126a085c, 0xc08051f7dc19ca74),
    (45, 0xb3e27a12e3e1d498, 0xf448b1e606a41572, 0x30c34aad55704dbb),
    (46, 0xf8d26feb71aa4149, 0x779abf56cf39ef11, 0xd82112699781a9a7),
    (47, 0xfe5716946c1b824f, 0x194d1f9e3d6456c3, 0x30f8acd3c987156c),
    (48, 0xd0a2ec6abacd23ac, 0x326d6626126a085c, 0x07e4261874942432),
    (49, 0xe9a166b12868a8b7, 0x3a26040c3c1e5866, 0x74495ce1a50d66a3),
    (50, 0xea386d9d0f6793b3, 0x326d6626126a085c, 0xf61ac5073512a932),
    (51, 0xde47c29b8afdbbe7, 0x3a26040c3c1e5866, 0xa655d8decf629203),
    (52, 0xb8d0fbabd060c689, 0x00f2b73128195003, 0x212d521df30c8dbb),
    (53, 0x34fe209380f00ecd, 0xf448b1e606a41572, 0x45aa56026760bebc),
    (54, 0x3ce108699f85a510, 0x194d1f9e3d6456c3, 0x6809dc949b698736),
    (55, 0x2503f8eaea666324, 0x4a26bf4e56fce91d, 0x6afda7d57e9d5057),
    (56, 0x7d1ea665163386d3, 0x779abf56cf39ef11, 0xafd1d0aefb73fc64),
    (57, 0xf63be7bde8b977c4, 0x6d8302b00480f9e8, 0x5161ee056a4ee9aa),
    (58, 0x62e90d0f0a9bdf27, 0x00f2b73128195003, 0x15aec617ce629a4e),
    (59, 0x71478cc8c2cc7263, 0x4a26bf4e56fce91d, 0x6fd5137a82f48e4f),
    (60, 0x194b5e60a4eec635, 0x779abf56cf39ef11, 0x13123e3bc59d8de4),
    (61, 0x594c6697dae8291b, 0x6d8302b00480f9e8, 0xff7080b4fd54526d),
    (62, 0xd69b50406243046b, 0x00f2b73128195003, 0x3bf1724d9ae9debe),
    (63, 0x09c647f06e6f8533, 0x194d1f9e3d6456c3, 0x4fb5ae7ebf73b57e),
    (64, 0x97af29d0342a697b, 0x326d6626126a085c, 0x740b14725332a79d),
    (65, 0xba4cf28766ab56b7, 0x6d8302b00480f9e8, 0x016caedb6b3503ed),
    (66, 0xfd5de72bc8230332, 0x6d8302b00480f9e8, 0x6eb13c0b362a7a9c),
    (67, 0x67e1cf9c6edae9f4, 0x4a26bf4e56fce91d, 0x3d2bad3004a27015),
    (68, 0x12f090c2d4058c53, 0x00f2b73128195003, 0x35da0d10a65aed36),
    (69, 0x9ae6a2e00bc07262, 0x779abf56cf39ef11, 0x1e57dddef78c0ce3),
    (70, 0xbec06a39e572bad8, 0x779abf56cf39ef11, 0x331b4e309cf22d64),
    (71, 0xde7d330172b5cdc3, 0x779abf56cf39ef11, 0x2975f242dd8d9cc2),
    (72, 0x599551eebe81cf46, 0x00f2b73128195003, 0x129ee3b245a07861),
    (73, 0x836de367da72f704, 0x326d6626126a085c, 0x538e3e3ea2dde58c),
    (74, 0x2acd0a4866cbd112, 0x326d6626126a085c, 0x3440cfb6a8ef990a),
    (75, 0x5e94d1857f09b21e, 0x4a26bf4e56fce91d, 0xd0eacc79c636bd37),
    (76, 0x45fc87cc067adc93, 0x00f2b73128195003, 0xf3b9482e3a04d2f0),
    (77, 0x7343dc7abd46817f, 0x6d8302b00480f9e8, 0x460b1d5d0ac97fb1),
    (78, 0x331462dcde5f7aad, 0x4a26bf4e56fce91d, 0xb17f7cbc2724f873),
    (79, 0x185f66d9bd86c798, 0x326d6626126a085c, 0x0289b6397c688fa0),
    (80, 0xdf4199b174f6de09, 0x326d6626126a085c, 0xb0e6f69e2a794eff),
    (81, 0x1dd36934b1b41bad, 0x194d1f9e3d6456c3, 0x724808f6c64cc87b),
    (82, 0x92b05cd483aaeb39, 0x4a26bf4e56fce91d, 0xace5ebbc8ed55d35),
    (83, 0x66c43ab909f5b3da, 0x194d1f9e3d6456c3, 0xbe602c367fb44a09),
    (84, 0xbdc93535460cee2e, 0x00f2b73128195003, 0xcf3025340ad5d9e7),
    (85, 0x61276a175e9216e5, 0x3a26040c3c1e5866, 0xfb59f6610318a4c8),
    (86, 0x01d22ed0d0f2ac75, 0x194d1f9e3d6456c3, 0xc8dcced86ec46ed1),
    (87, 0x72001569c2b8b844, 0x00f2b73128195003, 0x44575ba7c7d3408e),
    (88, 0x3e2ebb3f513d81e9, 0x326d6626126a085c, 0x67f70a50f33568eb),
    (89, 0xd44e77fbb94a62c6, 0xf448b1e606a41572, 0x92694d48b5f535d6),
    (90, 0x4f9336f0b92a5aff, 0xf448b1e606a41572, 0x1729eb6ea9a9d787),
    (91, 0x0f6a0453a476a369, 0x00f2b73128195003, 0xcef5e3ab972fae03),
    (92, 0x0714d62a2c770f2f, 0x779abf56cf39ef11, 0x3f35adbb5912c1da),
    (93, 0x914f28a250338b7f, 0x779abf56cf39ef11, 0x470e82b45ad8cc39),
    (94, 0x0720b35801f2dc1d, 0x779abf56cf39ef11, 0x17bfcea3ebc910a0),
    (95, 0x762b7dd837325f49, 0x4a26bf4e56fce91d, 0x0efb3fdd75aedef3),
    (96, 0x0dba6666ff41dd8e, 0x6d8302b00480f9e8, 0x2ae927c5ee698b7a),
    (97, 0x65b771a1abb7443b, 0x6d8302b00480f9e8, 0x2536502ade6f0d2e),
    (98, 0x3e4eb99848b66701, 0x194d1f9e3d6456c3, 0xa83965eaa3b96788),
    (99, 0xe16d400fbb056f78, 0x326d6626126a085c, 0xcea03e62b5f39191),
];

/// The recorded digest of `kind`'s front for `seed`.
pub fn expected(kind: Kind, seed: u64) -> Option<u64> {
    TABLE
        .iter()
        .find(|row| row.0 == seed)
        .map(|row| match kind {
            Kind::HugeRandom => row.1,
            Kind::GrayCached => row.2,
            Kind::GrayFidelity => row.3,
        })
}

/// Prints the table for seeds `0..n`. The cached workload's front does
/// not depend on the cache, so it is recorded from an uncached sweep.
pub fn record(n: u64) {
    println!("const TABLE: &[(u64, u64, u64, u64)] = &[");
    for seed in 0..n {
        let digests = Kind::ALL.map(|kind| {
            let spec = SweepSpec::new(kind, seed);
            let db = tta_core::ComponentDb::new();
            let result = spec.exploration(&db, None, spec.budget).run();
            Front::of_result(&result).digest()
        });
        println!(
            "    ({seed}, 0x{:016x}, 0x{:016x}, 0x{:016x}),",
            digests[0], digests[1], digests[2]
        );
    }
    println!("];");
}
