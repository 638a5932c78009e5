package churn_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"fdp/internal/churn"
	"fdp/internal/core"
	"fdp/internal/framework"
	"fdp/internal/oracle"
)

// pinnedScenarios builds the table TestBuildKeepsEveryScenario pins: every
// topology at a small size and at n ≈ 1000, under both variants, clean and
// corrupted; then P′ worlds, several components, explicit leavers and every
// leave pattern.
func pinnedScenarios() map[string]churn.Config {
	cfgs := map[string]churn.Config{}
	corrupt := churn.Corruption{FlipBeliefs: 0.3, RandomAnchors: 0.3, JunkMessages: 40}
	for _, topo := range churn.Topologies() {
		for _, n := range []int{16, 1000} {
			if topo == churn.TopoHypercube && n == 1000 {
				n = 1024
			}
			for _, v := range []core.Variant{core.VariantFDP, core.VariantFSP} {
				for _, dirty := range []bool{false, true} {
					cfg := churn.Config{N: n, Topology: topo, LeaveFraction: 0.5,
						Variant: v, Oracle: oracle.Single{}, Seed: 7}
					if dirty {
						cfg.Corrupt = corrupt
					}
					cfgs[fmt.Sprintf("%s/n%d/%s/corrupt=%t", topo, n, v, dirty)] = cfg
				}
			}
		}
	}
	for _, n := range []int{16, 1000} {
		cfgs[fmt.Sprintf("overlay-linearize/n%d", n)] = churn.Config{N: n, Topology: churn.TopoRandom,
			LeaveFraction: 0.5, Oracle: oracle.Single{}, Seed: 5, Overlay: framework.OverlayLinearize}
	}
	cfgs["overlay-sortring/n12/fsp/junk"] = churn.Config{N: 12, Topology: churn.TopoRing, LeaveFraction: 0.4,
		Variant: core.VariantFSP, Seed: 9, Overlay: framework.OverlayRing,
		Corrupt: churn.Corruption{RandomAnchors: 0.5, JunkPending: 6}}
	cfgs["overlay-skiplist/skip-graph/n1000/components3"] = churn.Config{N: 1000, Topology: churn.TopoSkipGraph,
		LeaveFraction: 0.3, Seed: 4, Components: 3, Overlay: framework.OverlaySkip}
	cfgs["components3/random/n1000"] = churn.Config{N: 1000, Topology: churn.TopoRandom, LeaveFraction: 0.5,
		Oracle: oracle.Single{}, Seed: 11, Components: 3, Corrupt: corrupt}
	cfgs["components4/line/n16/leavers"] = churn.Config{N: 16, Topology: churn.TopoLine, Seed: 2,
		Components: 4, LeaverIndices: []int{0, 5, 6, 13}}
	cfgs["leavers/de-bruijn/n1000"] = churn.Config{N: 1000, Topology: churn.TopoDeBruijn, Seed: 3,
		LeaverIndices: []int{999, 1, 500, 2, 1}, Variant: core.VariantFSP}
	for _, pat := range churn.Patterns() {
		for _, n := range []int{16, 1000} {
			cfgs[fmt.Sprintf("pattern-%s/n%d", pat, n)] = churn.Config{N: n, Topology: churn.TopoRandom,
				LeaveFraction: 0.4, Pattern: pat, Oracle: oracle.NIDEC{}, Seed: 13, Corrupt: corrupt}
		}
	}
	return cfgs
}

// scenarioDigest is the SHA-256 of what a build produced: the sealed world's
// fingerprint (every process's mode, life, variables and channel multiset),
// its initial components and the leaver indices.
func scenarioDigest(s *churn.Scenario) string {
	b := s.World.AppendFingerprint(nil)
	b = fmt.Appendf(b, "|%v|%v", s.World.InitialComponents(), s.LeaverIndexes())
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestBuildKeepsEveryScenario holds every pinned scenario to its recorded
// digest: the generators, the leaver picking, the edge install and the
// corruption must keep producing the same initial state, byte for byte.
func TestBuildKeepsEveryScenario(t *testing.T) {
	for name, cfg := range pinnedScenarios() {
		want, ok := pinnedDigests[name]
		got := scenarioDigest(churn.Build(cfg))
		if !ok {
			t.Errorf("no pinned digest: %q: %q,", name, got)
		} else if got != want {
			t.Errorf("%s: digest %s, pinned %s", name, got, want)
		}
	}
	for name := range pinnedDigests {
		if _, ok := pinnedScenarios()[name]; !ok {
			t.Errorf("pinned digest %q names no scenario", name)
		}
	}
}

var pinnedDigests = map[string]string{
	"clique/n1000/FDP/corrupt=false":                "a702b244138f477c6c4275192c6d6880aff9d6f21687860bf57368922a2f616c",
	"clique/n1000/FDP/corrupt=true":                 "86f5cb852b57f1c0a999b3e5296281c244e5f16d72631d93bb5bdc4737d7f035",
	"clique/n1000/FSP/corrupt=false":                "e34277eee8a22b023a65dd819dc7ac05d8d891b05602e07153844958c46924a8",
	"clique/n1000/FSP/corrupt=true":                 "feeeb14d5094697609d63daf91e81fb586414013f9452973e1e14a25381efb2c",
	"clique/n16/FDP/corrupt=false":                  "12cde9d2b1a95ecdede92017f01f7fed36aa9623c842afb78025cf11dc17fe08",
	"clique/n16/FDP/corrupt=true":                   "018fb06dcab72f4e697087489266d601d1fc15146970e3e2a828faec80f6a3cb",
	"clique/n16/FSP/corrupt=false":                  "43ce92241231cc08367fb9da40156e1e1e5eb12eee1fd0d1aff60ff5e0e6a11b",
	"clique/n16/FSP/corrupt=true":                   "cfa222b08b9e40b70ae3d7110e423ddcda3cce70908c6a90abec7a9ced81cc2f",
	"components3/random/n1000":                      "dae7d3ebd46c133db06de8d17c8a4e20a6b7fc168c237ee0d4b361a91d0778b2",
	"components4/line/n16/leavers":                  "b0a7b180eef89d7173697e38c320ede8872835f6847a25f91e8b4c0165ef96ef",
	"de-bruijn/n1000/FDP/corrupt=false":             "703fb37d95f9ce66ecb5ef549303da31d81cb8e61b86fcd66ab49fa3ee43ff8d",
	"de-bruijn/n1000/FDP/corrupt=true":              "34e271ad8be4f96f789bb452048165fffcee3d6bb255dc6998be9c858daed981",
	"de-bruijn/n1000/FSP/corrupt=false":             "c9c1a629b36e0299e3f0e65ad7749203a6f2685717a110fa3d55a5a12b13b3ed",
	"de-bruijn/n1000/FSP/corrupt=true":              "d45e47da7af311068bb8c8836e593641d585357777edad5555ef38c72b1ed848",
	"de-bruijn/n16/FDP/corrupt=false":               "cc8b90f4a373544a0fb83000d3d7c12a8a1a11183b8ada38108af662bf312de8",
	"de-bruijn/n16/FDP/corrupt=true":                "4d71d0a654c4104db498b2cd8c2fcd4f945efd64d34e29e7ef3b6e5452dd30fe",
	"de-bruijn/n16/FSP/corrupt=false":               "0b91211247b8d0644966b77c0317fccdef11fe46fc52bf3f5224000d44d4352e",
	"de-bruijn/n16/FSP/corrupt=true":                "7001cff7efd39eb3c9fcd1ca0dcf7cd2a860c5bc5e8d467559aa08e16bd838ed",
	"directed-line/n1000/FDP/corrupt=false":         "163b80539e283e0fe1ded9315d164141f3db7e6b914f720ea8ed04f87bcc32ff",
	"directed-line/n1000/FDP/corrupt=true":          "b53d77155da9a62dba5ab21e1e7fb8032ea7606cdad8d93246380f8d9ec86021",
	"directed-line/n1000/FSP/corrupt=false":         "707099203bdad495bfef835add76b7054cfe3be0c441f86f692aad3eb4923e91",
	"directed-line/n1000/FSP/corrupt=true":          "68062ad73532ba0360fefa487fee63935310efa5ef669e5e5f447961431fb9d8",
	"directed-line/n16/FDP/corrupt=false":           "5b558e7f41d1904cf6e40dce1b5a920d5e97caec32c0664ad86741686e193341",
	"directed-line/n16/FDP/corrupt=true":            "f6520c6ba13cf66ba9452bdbc8885be30454ed11a639ce3a5fe2efd2b445a930",
	"directed-line/n16/FSP/corrupt=false":           "0efc250234bc7fbd222f22ebc404e193e9131303e592038568f8bc616ea1830f",
	"directed-line/n16/FSP/corrupt=true":            "0108b469a6442461608d9090415c40ffb5ca97e1b35fa9a24e2386c1c2c117c9",
	"hypercube/n1024/FDP/corrupt=false":             "ce4210007552cf210d1b5a544ec3187aaa15c2a22d977e20b1336db8dc51c1b1",
	"hypercube/n1024/FDP/corrupt=true":              "0bf969aee6496a45b902119ac2229acd4c4cbf6027abd4ddfe36f1d61eebd62b",
	"hypercube/n1024/FSP/corrupt=false":             "f83a242492fdfc3fcf26862fd381d81a74e527b79fd1c715d1b81c091fc014bc",
	"hypercube/n1024/FSP/corrupt=true":              "e812617b2727750a1d9056bc5e92852bf03a3b151532d99d7418b43b3c9b8032",
	"hypercube/n16/FDP/corrupt=false":               "b13bc8f8e7b9ad0d5474d27080849c9fa4283ed2ecfec87e7ad78ccc265222a1",
	"hypercube/n16/FDP/corrupt=true":                "c0b47bb399bad83d5f1d07ef2045ac5dffd75687bb09573dbcd670b9f67e9141",
	"hypercube/n16/FSP/corrupt=false":               "ac7fe2e3a2f6bfc96d976efed79e8f32ecd4945f4c089e2c2957855ae18ed124",
	"hypercube/n16/FSP/corrupt=true":                "511190906c159e35a2ff7364dc6b392662a5869b04aca876da4b0ce593b7c29f",
	"leavers/de-bruijn/n1000":                       "3cbf8b8f21fee3d64af4dc567ebda92130a64fa44d9355b61f0f87a1e11da8b9",
	"line/n1000/FDP/corrupt=false":                  "a1cb8326cdd872361f5415dd4b84fc01adcd7fe9cca0f26cd6387b8b68562dd3",
	"line/n1000/FDP/corrupt=true":                   "9e403338a2648104d24e4af29c49ca24b59c6128598e27ad93552f6ce0f9120d",
	"line/n1000/FSP/corrupt=false":                  "0ae80c41db447973856d7e3b2efe329ac1c4329c9ca7901336be039c131a2ae1",
	"line/n1000/FSP/corrupt=true":                   "cac16cff25ee5df590930a4a097421614f202accf48319d572cd5a7214ea620d",
	"line/n16/FDP/corrupt=false":                    "cdf15d2824d226aa99cca072c1659bf592917be605f88d2fcf75c1650a063714",
	"line/n16/FDP/corrupt=true":                     "73d5becd196954b2e6a3b40e60ecf2186cd85dda9f518fe009a413889c4881b8",
	"line/n16/FSP/corrupt=false":                    "3bfd46cca979a4b9e85879c75830e5ca87981977b1c3980d8dbb7afa4b9f6436",
	"line/n16/FSP/corrupt=true":                     "51e6dc37222b1074239dc1d30b778f10ed6d25ce605f0e0c3d7e0c2638a53d47",
	"overlay-linearize/n1000":                       "46611f375df0d09fbdca8f8c6b0b8444a21da1532bceec7af905c6f3651f3ae1",
	"overlay-linearize/n16":                         "203cdbcaee47c55baa14fccd26e7c8853bee2b586450d65f0944e6159b82cc43",
	"overlay-skiplist/skip-graph/n1000/components3": "81352b7e3401b708f1183159e480a7baf865ed19541197b4d4f342eb09bb587e",
	"overlay-sortring/n12/fsp/junk":                 "06582fb4213bbaf941a189092f719a69e223acc42937aac1850a49760600528c",
	"pattern-all-but-one/n1000":                     "e75dba5b7b978a811c38b49dce61e0f95fbec3944147727f3fdb555d9e272b2d",
	"pattern-all-but-one/n16":                       "0bd8637d77995099b4517a276c84398fb6c6735e0877008a95dcb771174079e8",
	"pattern-articulation/n1000":                    "3eecfab2cbabf23f5877ac69b33d3ca7950ddbdf8c1dcdb648decc6a5cac4e1d",
	"pattern-articulation/n16":                      "56267a712a0100eb5c0f61add634876fd369648dd2fdb25f3667fda09966dadf",
	"pattern-block/n1000":                           "ab6c2e2bd9ae89dd0794816ea0d175ca63ec7e4d3f0060509924c97147f7fb3a",
	"pattern-block/n16":                             "15beacfff8570c404aee74ab900c0eac0d5ad08da2f6015edd98b55b106f4acc",
	"pattern-neighborhood/n1000":                    "6ab7896a60685d7a9f47b9887013b64bfea4b63b9950e0a5d3477367d8aa9127",
	"pattern-neighborhood/n16":                      "85869872f51f06f285c93790b28f896831e5671749bf0aafb092b1f619a361e3",
	"pattern-random/n1000":                          "4897008064471aaa7da74fbc725d55967fb5918bf028bc27d1cf778653613710",
	"pattern-random/n16":                            "56267a712a0100eb5c0f61add634876fd369648dd2fdb25f3667fda09966dadf",
	"random-regular/n1000/FDP/corrupt=false":        "0b0445ab125a3a78b073acd6b9d2917d273a6a3ed7915485203998cd3baa75c3",
	"random-regular/n1000/FDP/corrupt=true":         "ff911e2441e9874b58fb828a2606d5b4bf4ace39495e1c80771a907676c44ee0",
	"random-regular/n1000/FSP/corrupt=false":        "675eed9dd875494a9f89d7c29f76e2d454aaa43cb243a5adcdc44ae924909511",
	"random-regular/n1000/FSP/corrupt=true":         "cebbecc2d7aafbdf2554f54b60c3f26591c4124df2494de8d29578bb2afd4cf2",
	"random-regular/n16/FDP/corrupt=false":          "8cba24bebab59ec522f8d9b38f465468023987575a2a3851e7e3de930279eb28",
	"random-regular/n16/FDP/corrupt=true":           "39c3fd637cc3c430b92f1c60aec1e4a5b91b80ef0c1c781d43bbcb0dbab83b60",
	"random-regular/n16/FSP/corrupt=false":          "f93b489f757e4cfed2014485cecbc2261663b8c17c79cd5065c427242ec4b3ee",
	"random-regular/n16/FSP/corrupt=true":           "3e825c2bfe6166249a8f629d4d43f672b9b6fa8a2a850893e906867ba752d847",
	"random/n1000/FDP/corrupt=false":                "35a5b18a859e01b85a6983032986876a3fb0b3b9327078c49fe7664fd00d54ed",
	"random/n1000/FDP/corrupt=true":                 "c1e47754001a31a19ed403af0cee6f21a0cf49d624524721b049ef3bc7616f48",
	"random/n1000/FSP/corrupt=false":                "7a0e49f1d47b878f940cd15966a4891282750b542a3644a248da50cff1421b7b",
	"random/n1000/FSP/corrupt=true":                 "5e46a6da8d165da377407849d410f2e017b0577d241566f85efbe1718ce1182a",
	"random/n16/FDP/corrupt=false":                  "86bcb897d5c987ae036b73aa79e645b4810b210fa87bab8c15e7ad6cea7d5e8c",
	"random/n16/FDP/corrupt=true":                   "7bb0c3211a74a870f2835e2afbac53532b979b038d8c0a39da07715c93229650",
	"random/n16/FSP/corrupt=false":                  "f53b41001c530d578c5455509a5c147fb4e573fce75257823cffb5750772ac51",
	"random/n16/FSP/corrupt=true":                   "82b34f6fb302846b2e76a37a83c816a4086e7ff07d8cb019b80184ccb9a102ae",
	"ring/n1000/FDP/corrupt=false":                  "0e491759e66a9d22e506ebb81e6baecddd15d87b208e2004820803d5cb1b35da",
	"ring/n1000/FDP/corrupt=true":                   "332a95832ec9bd4dd572c6e1ca61519f945e3844e30bc65486096aaba0119d67",
	"ring/n1000/FSP/corrupt=false":                  "a8ef9f92a920c8262873015e577ef06471c9c6b63e4d0e489f8f08c32963ab2b",
	"ring/n1000/FSP/corrupt=true":                   "deeefcd563ac457931abea1fc00e2b333256f23ffb3803b8616338deec504139",
	"ring/n16/FDP/corrupt=false":                    "8eb6c0127ac0ae02c79c84a9acd7c1f5151447c1a2bba65021bdecd328db521a",
	"ring/n16/FDP/corrupt=true":                     "a151a462b38c873e1b5e3190ee67aa80eacb74d9c42ed45c7e3c4341f319ca97",
	"ring/n16/FSP/corrupt=false":                    "66d412ea6f088ea0cbf54ba1c9a9df88d3a271865ac29bda11dacb6b4c6a97ec",
	"ring/n16/FSP/corrupt=true":                     "cec2d3a34654a4f768f5ecc3886303571c60ecb7c03ef550a3032e0cd4f9cb0f",
	"skip-graph/n1000/FDP/corrupt=false":            "41627d5e5255a7328d41896f680da21dddc96837a57946d85ecd33b0c2d3a051",
	"skip-graph/n1000/FDP/corrupt=true":             "9c72fecd096b241b2754257d3fc37bf47026925a209adfcb463174716c95fd7d",
	"skip-graph/n1000/FSP/corrupt=false":            "0150f7be2cee839dfc5c08918364944d63b2288873724f48e9bd1a0cf94ddb73",
	"skip-graph/n1000/FSP/corrupt=true":             "200df0e01e36115166611d19fdaf00a7e4ca6619973449e9a7612740570b90f3",
	"skip-graph/n16/FDP/corrupt=false":              "726f6ffc1b0d3ab2cf87de643b57737c44a2477f700d592c801a23d1dfc1c8c5",
	"skip-graph/n16/FDP/corrupt=true":               "3b5ea2527d53d4ead8992e466c98f3ee71612fdbeca523d5237ee0cf641c3337",
	"skip-graph/n16/FSP/corrupt=false":              "01786a75a88dfe957a8a15aa808905e15ed559f864fe900a4f49a48d5e2a544f",
	"skip-graph/n16/FSP/corrupt=true":               "3a4a4ef203a4f79175684d9c3d07baa30755fd3377f4ba981d37067970c4f652",
	"star/n1000/FDP/corrupt=false":                  "a55dad2142b27c1e51bcb122cf26c26091f44c76fd03e38330e43cc07ab45b1b",
	"star/n1000/FDP/corrupt=true":                   "ba8d3e5eca439ebcc704c0a5bc06990af5e6f1d64d98fc9b5b9b8eb89b54356d",
	"star/n1000/FSP/corrupt=false":                  "b8f970287f6bba882449b16fed8f6b5c73382eeae851533cbe9f623493372c39",
	"star/n1000/FSP/corrupt=true":                   "e8b8621b745f7845d2b9a472039c150a215a3cc1b7a53a98da46b4a7e9a73239",
	"star/n16/FDP/corrupt=false":                    "610791f1532e1cad353fa0ac6c587adb5449ef9171b6af509cc87202daa21b24",
	"star/n16/FDP/corrupt=true":                     "f5e5df5a5e54d1af5ad789a66bb1fe34d780b4cf1c875a8c2e80fd476b6fc27b",
	"star/n16/FSP/corrupt=false":                    "17a1adde7ce2aec23f559b0bd8340fb9e43c6144feb85d6ba96cb4da8d75e289",
	"star/n16/FSP/corrupt=true":                     "77796919a48bd084066a4f3314dc2eefaff438af56eaa475e21ff03b841f5e81",
	"tree/n1000/FDP/corrupt=false":                  "2e4f5890fd320c939d9d66f9a42c63128eefc0f9b144da0d299caa6d7fd1f2ea",
	"tree/n1000/FDP/corrupt=true":                   "622a8228520a3f1f70890cf1240d6b3aa71f45d205f6c2b18067175e4b4c7e38",
	"tree/n1000/FSP/corrupt=false":                  "e91cd3bbeb8b767e17eedbb7abcc1a9075b2a450e30751820b257f455e7e0eda",
	"tree/n1000/FSP/corrupt=true":                   "8179f2a01a2ffbc5e34ec8d996e99cc57dbb64316e9c8bbc0c4126c1442adb20",
	"tree/n16/FDP/corrupt=false":                    "38825e926e8baea94a7405a2654dd2b368933dd0ce881a4b0c6dac23b86b638a",
	"tree/n16/FDP/corrupt=true":                     "5f8e1077dfc5ea8ee7647fa846c4c1d0fed878a080f54ebaa9af4a77cf5717d7",
	"tree/n16/FSP/corrupt=false":                    "6df457857069599845b22285253831d7e9948852ebbcc0c88456d8f30af6131b",
	"tree/n16/FSP/corrupt=true":                     "a7cc0055efb991d2389c0c4c7a4951a0ccbdcfcb35de085476e84856c273c3a6",
}
